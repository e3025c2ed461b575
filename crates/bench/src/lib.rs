//! # blaeu-bench — shared workloads for benches and the figure harness
//!
//! Both the Criterion benches and the `figures` binary draw their inputs
//! from here, so a number printed by a figure and a number measured by a
//! bench describe the same workload.

#![warn(missing_docs)]

use blaeu_cluster::Points;
use blaeu_core::{preprocess, MetricChoice, PreprocessConfig};
use blaeu_store::generate::{oecd, planted, OecdConfig, PlantedConfig, PlantedTruth, ThemeSpec};
use blaeu_store::{Table, TableView};

/// Fixed seed used by every workload (fully reproducible runs).
pub const SEED: u64 = 20160913;

/// The scaled-down Countries & Work table used by fast figures
/// (same structure as the paper's 6 823 × 378, smaller for quick runs).
pub fn oecd_small() -> (Table, PlantedTruth) {
    oecd(&OecdConfig {
        nrows: 1200,
        ncols: 36,
        missing_rate: 0.0,
        seed: SEED,
    })
    .expect("generator cannot fail on valid config")
}

/// [`oecd_small`] with 5 % of the filler indicator cells NULL — the
/// input that exercises every scan's NULL handling.
pub fn oecd_small_nulls() -> Table {
    oecd(&OecdConfig {
        nrows: 1200,
        ncols: 36,
        missing_rate: 0.05,
        seed: SEED,
    })
    .expect("generator cannot fail on valid config")
    .0
}

/// Response digests of every scan command over `table`, folded per
/// (state, command) into labelled entries such as `"zoom/highlight"`.
///
/// Three states are scanned: the map of theme 0 (`map`), a zoom into
/// its largest leaf (`zoom`), and the level-0 rung of a progressive
/// ladder over the full view (`preview`, whose leaves hold only the
/// routed sample rows). In each state the scans are a
/// `highlight` of every column, a `scatter` of every adjacent pair of
/// numeric columns, and a `region_detail` of every region. Digests are
/// persisted in session journals, so these values are a contract: the
/// determinism digest records them and `tests/scan_digests.rs` pins them.
///
/// # Panics
/// Panics when the table cannot be explored (fewer than two columns,
/// too few rows for a preview rung) — a workload bug, not a data case.
pub fn scan_digests(table: Table) -> Vec<(String, u64)> {
    use blaeu_core::{Command, Explorer, ExplorerConfig};

    let fields = table.schema().fields();
    let columns: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
    let numeric: Vec<String> = fields
        .iter()
        .filter(|f| f.dtype.is_numeric())
        .map(|f| f.name.clone())
        .collect();
    let mut ex = Explorer::open(table, ExplorerConfig::default()).expect("openable");
    let scan_state = |ex: &mut Explorer, state: &str, out: &mut Vec<(String, u64)>| {
        let n_regions = ex.map().expect("state has a map").n_regions();
        let commands: [(&str, Vec<Command>); 3] = [
            (
                "highlight",
                columns.iter().cloned().map(Command::Highlight).collect(),
            ),
            (
                "scatter",
                numeric
                    .windows(2)
                    .map(|pair| Command::Scatter {
                        x: pair[0].clone(),
                        y: pair[1].clone(),
                        bins: 8,
                    })
                    .collect(),
            ),
            (
                "region_detail",
                (0..n_regions)
                    .map(|region| Command::RegionDetail {
                        region,
                        sample_rows: 5,
                    })
                    .collect(),
            ),
        ];
        for (name, commands) in commands {
            let digests: Vec<u64> = commands
                .iter()
                .map(|c| ex.execute(c).expect("scan succeeds").digest())
                .collect();
            out.push((format!("{state}/{name}"), fold_digests(&digests)));
        }
    };

    let mut out = Vec::new();
    ex.select_theme(0).expect("mappable");
    scan_state(&mut ex, "map", &mut out);
    let biggest = ex
        .map()
        .expect("mapped")
        .leaves()
        .iter()
        .max_by_key(|r| r.count)
        .map(|r| r.id)
        .expect("a map has leaves");
    ex.zoom(biggest).expect("zoomable");
    scan_state(&mut ex, "zoom", &mut out);
    ex.rollback().expect("zoom is undoable");
    ex.map_progressive().expect("ladder starts");
    assert!(
        ex.map().expect("rung map").is_preview(),
        "level 0 must be a preview map"
    );
    scan_state(&mut ex, "preview", &mut out);
    out
}

/// FNV-1a over the little-endian bytes of `digests`, in order.
fn fold_digests(digests: &[u64]) -> u64 {
    digests
        .iter()
        .flat_map(|d| d.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The paper-sized Countries & Work table (6 823 × 378).
pub fn oecd_full() -> (Table, PlantedTruth) {
    oecd(&OecdConfig {
        seed: SEED,
        ..OecdConfig::default()
    })
    .expect("generator cannot fail on valid config")
}

/// A planted numeric table with `clusters` blobs over one 6-column theme,
/// used for clustering-focused experiments (C1–C5, A2, A3).
pub fn blobs(nrows: usize, clusters: usize) -> (Table, PlantedTruth) {
    planted(&PlantedConfig {
        name: "blobs".to_owned(),
        nrows,
        themes: vec![ThemeSpec::numeric("m", 6)],
        clusters,
        cluster_sep: 5.0,
        cluster_weights: Vec::new(),
        noise: 0.4,
        missing_rate: 0.0,
        seed: SEED,
    })
    .expect("generator cannot fail on valid config")
}

/// The wide table the progressive benches run on: 48 columns
/// (8 planted numeric themes × 6 columns) over 50 000 rows — big enough
/// that an exact map is far from interactive while the level-0 coarse
/// map stays in the single-digit-millisecond regime.
pub fn wide() -> (Table, PlantedTruth) {
    planted(&PlantedConfig {
        name: "wide".to_owned(),
        nrows: 50_000,
        themes: (0..8)
            .map(|t| ThemeSpec::numeric(format!("t{t}"), 6))
            .collect(),
        clusters: 4,
        cluster_sep: 5.0,
        cluster_weights: Vec::new(),
        noise: 0.4,
        missing_rate: 0.0,
        seed: SEED,
    })
    .expect("generator cannot fail on valid config")
}

/// Names of the `blobs` measure columns.
pub fn blob_columns(truth: &PlantedTruth) -> Vec<&str> {
    truth
        .theme_of_column
        .iter()
        .map(|(c, _)| c.as_str())
        .collect()
}

/// Preprocesses a view's columns into clusterable points (Gower).
pub fn as_points(view: &TableView, columns: &[&str]) -> Points {
    preprocess(view, columns, &PreprocessConfig::default())
        .expect("columns exist")
        .into_points(MetricChoice::Gower)
}

/// Formats a float for table output (3 significant decimals).
pub fn fmt(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let ms = d.as_secs_f64() * 1000.0;
    if ms < 1.0 {
        format!("{:.0} µs", ms * 1000.0)
    } else if ms < 1000.0 {
        format!("{ms:.1} ms")
    } else {
        format!("{:.2} s", ms / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_expected_shapes() {
        let (t, truth) = oecd_small();
        assert_eq!(t.nrows(), 1200);
        assert_eq!(truth.theme_names.len(), 10);
        let (t, truth) = blobs(500, 3);
        assert_eq!(t.nrows(), 500);
        assert_eq!(blob_columns(&truth).len(), 6);
        let p = as_points(&t.into(), &blob_columns(&truth));
        assert_eq!(p.len(), 500);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt(1.23456), "1.235");
        assert_eq!(
            fmt_duration(std::time::Duration::from_millis(1500)),
            "1.50 s"
        );
        assert_eq!(
            fmt_duration(std::time::Duration::from_micros(250)),
            "250 µs"
        );
    }
}
