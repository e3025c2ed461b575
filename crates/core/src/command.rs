//! The session wire protocol: explorer actions as data.
//!
//! The async session tier turns every explorer interaction into a queued
//! [`Command`] answered by a typed [`Response`], so a session is a FIFO
//! command pipeline instead of a closure under a mutex. Commands are
//! plain serializable values ([`Command::to_json`] /
//! [`Command::from_json`] round-trip through the wire format a web
//! client would speak); responses carry shared handles to the heavy
//! results (maps, theme sets) so queueing never copies an analysis.
//!
//! [`Response::digest`] condenses a response to 64 bits with floats
//! compared *bit-exactly* (via `Debug`'s shortest-round-trip float
//! rendering), which is how the tests pin the invariants "per-session
//! response streams are identical across thread budgets" and "a cache
//! hit is identical to a miss".

use std::sync::Arc;

use serde_json::{json, Value};

use crate::error::{BlaeuError, Result};
use crate::explorer::{Highlight, RegionDetail};
use crate::map::DataMap;
use crate::render::json::{highlight_to_json, map_to_json, themes_to_json};
use crate::themes::ThemeSet;

/// One queued explorer action.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Select theme `idx` and build its map (slow: full cluster
    /// analysis).
    SelectTheme(usize),
    /// Zoom into region `id` of the current map (slow: re-maps the
    /// region's rows).
    Zoom(usize),
    /// Re-map the current selection on the current columns (slow; the
    /// canonical cacheable request — repeated `Map`s of the same state
    /// hit the analysis cache).
    Map,
    /// Progressive re-map: build level 0 of the deterministic sample
    /// ladder and answer immediately with its [`Response::MapDelta`];
    /// the remaining rungs run as [`Command::MapRefine`] follow-ups
    /// (re-enqueued by the session server) until the final level equals
    /// the exact [`Command::Map`] result bit-for-bit.
    MapProgressive,
    /// Run one pending rung of an in-flight progressive ladder. Issued
    /// by the session server's drain loop (and by journal replay), not
    /// normally by clients; refining out of order or without an active
    /// ladder is a typed error.
    MapRefine {
        /// The ladder level to build (must be the next pending rung).
        level: usize,
    },
    /// Project the current rows onto explicit columns (slow).
    Project(Vec<String>),
    /// Project onto the columns of theme `idx` (slow).
    ProjectTheme(usize),
    /// Column distributions per region (fast, read-only).
    Highlight(String),
    /// Scatter densities of two numeric columns per region (fast,
    /// read-only).
    Scatter {
        /// X-axis column.
        x: String,
        /// Y-axis column.
        y: String,
        /// Bins per axis (clamped to 2..=64).
        bins: usize,
    },
    /// Region metadata, example tuples and the medoid (fast, read-only).
    RegionDetail {
        /// Region id in the current map.
        region: usize,
        /// Example-tuple cap.
        sample_rows: usize,
    },
    /// Return to the previous state (fast).
    Rollback,
    /// Jump to history position `depth` (1 = initial state; fast).
    RollbackTo(usize),
    /// The detected themes (fast, read-only).
    Themes,
    /// The accumulated implicit query as SQL (fast, read-only).
    Sql,
    /// The action trail of the current state (fast, read-only).
    Breadcrumbs,
    /// Current history depth (fast, read-only).
    Depth,
}

/// Stamps `"v": WIRE_VERSION` onto an object — the versioned envelope
/// every wire and journal record carries, so the on-disk and on-wire
/// contracts are one schema and can evolve without guesswork.
fn with_envelope(mut value: Value) -> Value {
    if let Value::Object(map) = &mut value {
        map.insert("v".to_owned(), json!(Command::WIRE_VERSION));
    }
    value
}

impl Command {
    /// Version of the wire schema this build emits and accepts. Objects
    /// without a `"v"` field are legacy v1 bodies; objects with any
    /// other version are rejected with a typed error instead of being
    /// half-parsed.
    pub const WIRE_VERSION: u64 = 1;

    /// Longest string any wire field may carry (column names in practice
    /// are tens of bytes; anything bigger is hostile or broken input).
    const MAX_WIRE_STRING: usize = 4096;

    /// Most entries a wire `project` column list may carry.
    const MAX_WIRE_COLUMNS: usize = 1024;

    /// Parses a command from JSON *text* — the convenience the network
    /// transport and tests use. Parse errors (malformed JSON, absurd
    /// nesting depth, non-finite numbers) and shape errors both surface
    /// as [`BlaeuError::Invalid`] with the parser's line/column context.
    ///
    /// # Errors
    /// As [`Command::from_json`], plus positioned JSON parse errors.
    pub fn from_json_str(text: &str) -> Result<Command> {
        let value = serde_json::from_str(text)
            .map_err(|e| BlaeuError::Invalid(format!("malformed command JSON: {e}")))?;
        Command::from_json(&value)
    }

    /// Serializes the command to its wire form (a v1 envelope: the
    /// command object plus `"v": 1`).
    pub fn to_json(&self) -> Value {
        with_envelope(match self {
            Command::SelectTheme(idx) => json!({"cmd": "select_theme", "theme": *idx}),
            Command::Zoom(region) => json!({"cmd": "zoom", "region": *region}),
            Command::Map => json!({"cmd": "map"}),
            Command::MapProgressive => json!({"cmd": "map_progressive"}),
            Command::MapRefine { level } => json!({"cmd": "map_refine", "level": *level}),
            Command::Project(columns) => json!({"cmd": "project", "columns": columns.clone()}),
            Command::ProjectTheme(idx) => json!({"cmd": "project_theme", "theme": *idx}),
            Command::Highlight(column) => json!({"cmd": "highlight", "column": column.clone()}),
            Command::Scatter { x, y, bins } => {
                json!({"cmd": "scatter", "x": x.clone(), "y": y.clone(), "bins": *bins})
            }
            Command::RegionDetail {
                region,
                sample_rows,
            } => json!({"cmd": "region_detail", "region": *region, "sample_rows": *sample_rows}),
            Command::Rollback => json!({"cmd": "rollback"}),
            Command::RollbackTo(depth) => json!({"cmd": "rollback_to", "depth": *depth}),
            Command::Themes => json!({"cmd": "themes"}),
            Command::Sql => json!({"cmd": "sql"}),
            Command::Breadcrumbs => json!({"cmd": "breadcrumbs"}),
            Command::Depth => json!({"cmd": "depth"}),
        })
    }

    /// Parses a command from its wire form.
    ///
    /// Wire input is adversarial: besides shape errors (unknown tags,
    /// missing fields), every field is type- and bounds-checked —
    /// indices must be non-negative integers that fit `usize` (floats,
    /// non-finite numbers and negatives are mistyped, not truncated),
    /// strings are capped at 4 096 bytes and the `project` column list
    /// at 1 024 entries, so a hostile body cannot make the engine chase
    /// absurd allocations.
    ///
    /// # Errors
    /// Returns [`BlaeuError::Invalid`] for unknown or malformed commands;
    /// never panics, whatever the input.
    pub fn from_json(value: &Value) -> Result<Command> {
        if !value.is_object() {
            return Err(BlaeuError::Invalid(
                "a command must be a JSON object".into(),
            ));
        }
        // Envelope check first: a bare object (no "v") is a legacy v1
        // body; anything claiming a different — or mistyped — version is
        // rejected before its fields are looked at.
        if let Some(v) = value.get("v") {
            if v.as_u64() != Some(Self::WIRE_VERSION) {
                return Err(BlaeuError::Invalid(format!(
                    "unsupported wire version {v:?} (this build speaks v{})",
                    Self::WIRE_VERSION
                )));
            }
        }
        let cmd = value
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or_else(|| BlaeuError::Invalid("command object needs a \"cmd\" field".into()))?;
        let index = |field: &str| -> Result<usize> {
            value
                .get(field)
                .and_then(Value::as_u64)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| {
                    BlaeuError::Invalid(format!(
                        "command {cmd:?} needs non-negative integer field {field:?}"
                    ))
                })
        };
        let text = |field: &str| -> Result<String> {
            let s = value.get(field).and_then(Value::as_str).ok_or_else(|| {
                BlaeuError::Invalid(format!("command {cmd:?} needs string field {field:?}"))
            })?;
            if s.len() > Self::MAX_WIRE_STRING {
                return Err(BlaeuError::Invalid(format!(
                    "command {cmd:?} field {field:?} exceeds {} bytes",
                    Self::MAX_WIRE_STRING
                )));
            }
            Ok(s.to_owned())
        };
        Ok(match cmd {
            "select_theme" => Command::SelectTheme(index("theme")?),
            "zoom" => Command::Zoom(index("region")?),
            "map" => Command::Map,
            "map_progressive" => Command::MapProgressive,
            "map_refine" => Command::MapRefine {
                level: index("level")?,
            },
            "project" => {
                let entries = value
                    .get("columns")
                    .and_then(Value::as_array)
                    .ok_or_else(|| {
                        BlaeuError::Invalid("command \"project\" needs a \"columns\" array".into())
                    })?;
                if entries.len() > Self::MAX_WIRE_COLUMNS {
                    return Err(BlaeuError::Invalid(format!(
                        "\"columns\" exceeds {} entries",
                        Self::MAX_WIRE_COLUMNS
                    )));
                }
                let columns = entries
                    .iter()
                    .map(|c| {
                        c.as_str()
                            .filter(|s| s.len() <= Self::MAX_WIRE_STRING)
                            .map(str::to_owned)
                            .ok_or_else(|| {
                                BlaeuError::Invalid(
                                    "\"columns\" entries must be bounded strings".into(),
                                )
                            })
                    })
                    .collect::<Result<Vec<String>>>()?;
                Command::Project(columns)
            }
            "project_theme" => Command::ProjectTheme(index("theme")?),
            "highlight" => Command::Highlight(text("column")?),
            "scatter" => Command::Scatter {
                x: text("x")?,
                y: text("y")?,
                bins: index("bins")?,
            },
            "region_detail" => Command::RegionDetail {
                region: index("region")?,
                sample_rows: index("sample_rows")?,
            },
            "rollback" => Command::Rollback,
            "rollback_to" => Command::RollbackTo(index("depth")?),
            "themes" => Command::Themes,
            "sql" => Command::Sql,
            "breadcrumbs" => Command::Breadcrumbs,
            "depth" => Command::Depth,
            other => return Err(BlaeuError::Invalid(format!("unknown command {other:?}"))),
        })
    }
}

/// The typed answer to one [`Command`].
#[derive(Debug, Clone)]
pub enum Response {
    /// A (re)built map — shared, never copied per client.
    Map(Arc<DataMap>),
    /// One completed level of a progressive ladder: the level's full map
    /// (shared) plus the typed delta against the previous level. The
    /// final level's `delta.map_digest` equals the exact
    /// [`Response::Map`] digest verbatim.
    MapDelta {
        /// The map as of this level.
        map: Arc<DataMap>,
        /// What changed, which level, whether this is the exact one.
        delta: crate::progressive::RefinementDelta,
    },
    /// The detected themes.
    Themes(Arc<ThemeSet>),
    /// Per-region distributions of one column (boxed: the payload is an
    /// order of magnitude bigger than the other variants).
    Highlight(Box<Highlight>),
    /// Per-region scatter densities.
    Scatter(Vec<(usize, blaeu_stats::ScatterGrid)>),
    /// One region's metadata, examples and medoid (boxed, as above).
    RegionDetail(Box<RegionDetail>),
    /// The implicit query as SQL.
    Sql(String),
    /// The action trail.
    Breadcrumbs(Vec<String>),
    /// History depth after the action.
    Depth(usize),
}

impl Response {
    /// 64-bit FNV-1a digest of the full response content, with floats
    /// compared bit-exactly: `Debug` renders `f64` as its shortest
    /// round-trip decimal, so two responses digest equally iff every
    /// field — including every float — is identical. This is the anchor
    /// for the cache-purity and cross-thread-budget determinism tests.
    pub fn digest(&self) -> u64 {
        use std::fmt::Write as _;
        // Fold the Debug rendering into the hash as it is produced —
        // no materialized string, even for multi-megabyte map payloads.
        struct Fnv(u64);
        impl std::fmt::Write for Fnv {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                for byte in s.bytes() {
                    self.0 ^= u64::from(byte);
                    self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
                }
                Ok(())
            }
        }
        let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
        write!(fnv, "{self:?}").expect("hashing writer never fails");
        fnv.0
    }

    /// Serializes the response to the JSON a web client would render
    /// (same v1 envelope as [`Command::to_json`]).
    pub fn to_json(&self) -> Value {
        with_envelope(match self {
            Response::Map(map) => json!({"response": "map", "map": map_to_json(map)}),
            Response::MapDelta { map, delta } => json!({
                // `kind: delta` is the stream discriminator the NDJSON
                // batch channel documents; clients patch the listed
                // regions in place instead of re-rendering the map.
                "response": "map_delta",
                "kind": "delta",
                "level": delta.level,
                "levels": delta.levels,
                "final": delta.final_level,
                "sample_size": delta.sample_size,
                "assigned_rows": map.assigned_rows,
                "n_regions": delta.n_regions,
                "map_digest": format!("{:016x}", delta.map_digest),
                "changed": delta.changed_regions.iter().map(|&id| {
                    match map.region(id) {
                        Ok(region) => crate::render::json::region_flat_json(region),
                        // A removed region: present in the previous
                        // level, absent now — the id alone tells the
                        // client to drop it.
                        Err(_) => json!({"id": id, "removed": true}),
                    }
                }).collect::<Vec<_>>(),
            }),
            Response::Themes(themes) => {
                json!({"response": "themes", "themes": themes_to_json(themes)})
            }
            Response::Highlight(hl) => {
                json!({"response": "highlight", "highlight": highlight_to_json(hl)})
            }
            Response::Scatter(grids) => json!({
                "response": "scatter",
                "regions": grids.iter().map(|(region, grid)| json!({
                    "region": *region,
                    "total": grid.total(),
                    "dropped": grid.dropped,
                })).collect::<Vec<_>>(),
            }),
            Response::RegionDetail(detail) => json!({
                "response": "region_detail",
                "region": detail.region.id,
                "count": detail.region.count,
                "description": detail.region.description.clone(),
                "examples": detail.examples.nrows(),
                "has_medoid": detail.medoid.is_some(),
            }),
            Response::Sql(sql) => json!({"response": "sql", "sql": sql.clone()}),
            Response::Breadcrumbs(crumbs) => {
                json!({"response": "breadcrumbs", "breadcrumbs": crumbs.clone()})
            }
            Response::Depth(depth) => json!({"response": "depth", "depth": *depth}),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_commands() -> Vec<Command> {
        vec![
            Command::SelectTheme(2),
            Command::Zoom(5),
            Command::Map,
            Command::MapProgressive,
            Command::MapRefine { level: 2 },
            Command::Project(vec!["a".into(), "b".into()]),
            Command::ProjectTheme(1),
            Command::Highlight("country".into()),
            Command::Scatter {
                x: "x".into(),
                y: "y".into(),
                bins: 12,
            },
            Command::RegionDetail {
                region: 3,
                sample_rows: 7,
            },
            Command::Rollback,
            Command::RollbackTo(1),
            Command::Themes,
            Command::Sql,
            Command::Breadcrumbs,
            Command::Depth,
        ]
    }

    #[test]
    fn commands_round_trip_through_json() {
        for cmd in all_commands() {
            let wire = cmd.to_json();
            let back = Command::from_json(&wire).unwrap();
            assert_eq!(cmd, back, "wire {wire:?}");
        }
    }

    #[test]
    fn wire_envelope_versioned_and_legacy_accepted() {
        // Every emitted object carries the envelope.
        for cmd in all_commands() {
            let wire = cmd.to_json();
            assert_eq!(
                wire.get("v").and_then(Value::as_u64),
                Some(Command::WIRE_VERSION),
                "missing envelope on {wire:?}"
            );
        }
        let depth = Response::Depth(3).to_json();
        assert_eq!(
            depth.get("v").and_then(Value::as_u64),
            Some(Command::WIRE_VERSION)
        );
        // Bare legacy objects (no "v") parse as v1.
        assert_eq!(
            Command::from_json(&json!({"cmd": "depth"})).unwrap(),
            Command::Depth
        );
        // Explicit v1 parses; unknown and mistyped versions are typed
        // Invalid errors, not half-parsed commands.
        assert_eq!(
            Command::from_json(&json!({"v": 1, "cmd": "depth"})).unwrap(),
            Command::Depth
        );
        for bad in [
            json!({"v": 2, "cmd": "depth"}),
            json!({"v": 0, "cmd": "depth"}),
            json!({"v": -1i64, "cmd": "depth"}),
            json!({"v": "1", "cmd": "depth"}),
            json!({"v": 1.5, "cmd": "depth"}),
            json!({"v": Value::Null, "cmd": "depth"}),
        ] {
            let err = Command::from_json(&bad).unwrap_err();
            match err {
                BlaeuError::Invalid(message) => {
                    assert!(message.contains("wire version"), "{message}")
                }
                other => panic!("wrong error for {bad:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_commands_rejected() {
        for bad in [
            json!({"theme": 1}),
            json!({"cmd": "warp"}),
            json!({"cmd": "zoom"}),
            json!({"cmd": "highlight", "column": 3}),
            json!({"cmd": "project", "columns": [1, 2]}),
            json!({"cmd": "project"}),
            // Mistyped indices must be rejected, not truncated: floats,
            // non-finite floats, negatives, and nested junk.
            json!({"cmd": "zoom", "region": 1.5}),
            json!({"cmd": "zoom", "region": f64::NAN}),
            json!({"cmd": "zoom", "region": f64::INFINITY}),
            json!({"cmd": "zoom", "region": -3i64}),
            json!({"cmd": "zoom", "region": json!([0])}),
            json!({"cmd": "select_theme", "theme": "0"}),
            json!({"cmd": 7}),
            json!(["cmd", "depth"]),
            json!("depth"),
            json!(null),
            json!({"cmd": "scatter", "x": "a", "y": "b", "bins": -1i64}),
        ] {
            assert!(
                matches!(Command::from_json(&bad), Err(BlaeuError::Invalid(_))),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn oversized_wire_fields_rejected() {
        let huge = "x".repeat(Command::MAX_WIRE_STRING + 1);
        for bad in [
            json!({"cmd": "highlight", "column": huge.clone()}),
            json!({"cmd": "project", "columns": std::slice::from_ref(&huge)}),
            json!({"cmd": "project", "columns": vec!["c"; Command::MAX_WIRE_COLUMNS + 1]}),
        ] {
            assert!(
                matches!(Command::from_json(&bad), Err(BlaeuError::Invalid(_))),
                "accepted oversized field"
            );
        }
        // The bound itself is legal.
        let at_cap = json!({"cmd": "highlight", "column": "x".repeat(Command::MAX_WIRE_STRING)});
        assert!(Command::from_json(&at_cap).is_ok());
    }

    #[test]
    fn from_json_str_round_trips_and_reports_parse_errors() {
        for cmd in all_commands() {
            let text = serde_json::to_string(&cmd.to_json()).unwrap();
            assert_eq!(Command::from_json_str(&text).unwrap(), cmd);
        }
        for bad in [
            "",
            "{",
            "{\"cmd\": \"depth\"",
            "[1, 2",
            "depth",
            "{\"cmd\": }",
        ] {
            assert!(
                matches!(Command::from_json_str(bad), Err(BlaeuError::Invalid(_))),
                "accepted {bad:?}"
            );
        }
        // Hostile nesting depth errors instead of overflowing the stack.
        let mut deep = String::from("{\"cmd\": ");
        for _ in 0..50_000 {
            deep.push('[');
        }
        assert!(matches!(
            Command::from_json_str(&deep),
            Err(BlaeuError::Invalid(_))
        ));
    }

    #[test]
    fn digests_separate_distinct_responses() {
        let a = Response::Sql("SELECT 1".into());
        let b = Response::Sql("SELECT 2".into());
        assert_eq!(a.digest(), Response::Sql("SELECT 1".into()).digest());
        assert_ne!(a.digest(), b.digest());
        assert_ne!(Response::Depth(1).digest(), Response::Depth(2).digest());
    }
}
