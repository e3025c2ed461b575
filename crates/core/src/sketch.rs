//! Mergeable sketch operations — the in-process combine behind
//! `Command::Sketch`.
//!
//! The naturally mergeable analyses (dependency matrix cells,
//! describe/histogram summaries, CLARA assignment) are expressed as a
//! [`SketchOp`]. Planning an op against a view ([`SketchOp::plan`]) runs
//! its deterministic phase-1 and fixes a canonical shard layout, a pure
//! function of the op and the view's row count.
//! [`SketchPlan::run_range`] executes a contiguous range of those shards
//! and returns a [`SketchPartial`]; partials merge **in shard order**
//! ([`SketchPartial::merge`]) and finalize without touching the data
//! ([`SketchOp::finalize`]).
//!
//! The invariant: merging range partials in shard order replays the
//! exact combine sequence of a full-range run, so however the shard space
//! is grouped, the finalized result — every float bit — is identical.

use serde_json::{json, Value};

use blaeu_cluster::{assign_shard, AssignPartial, Points};
use blaeu_exec::{par_map_range_grained, ShardSpec};
use blaeu_stats::{
    describe_kind, describe_shard, finalize_dep_cells, finalize_describe, finalize_histogram,
    histogram_prepare, histogram_shard, merge_dep_cells, row_shard_spec, ColumnSummary,
    DepMatrixSketch, DependencyMatrix, DependencyOptions, DescribeKind, DescribePartial, Histogram,
    HistogramPartial, HistogramSketch,
};
use blaeu_store::TableView;

use crate::command::Command;
use crate::error::{BlaeuError, Result};
use crate::preprocess::{preprocess, MetricChoice, PreprocessConfig};

/// A mergeable analysis, as data: what to compute, not where.
///
/// Analysis parameters are pinned to the engine defaults (dependency
/// options, Gower preprocessing), so a plan depends only on the op and
/// the view.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchOp {
    /// Pairwise dependency cells over the named columns
    /// ([`blaeu_stats::dependency_matrix`] with default options); shards
    /// carve the column-pair space.
    DepMatrix {
        /// Columns to sweep, in order.
        columns: Vec<String>,
    },
    /// Column summary ([`blaeu_stats::describe`]); shards carve the rows.
    Describe {
        /// Column to summarize.
        column: String,
        /// Categorical top-list cap.
        top_k: usize,
    },
    /// Column histogram ([`blaeu_stats::histogram`]); shards carve the
    /// rows.
    Histogram {
        /// Column to bin.
        column: String,
        /// Requested bin count.
        bins: usize,
    },
    /// CLARA assignment sweep: label every row with its nearest medoid
    /// over Gower-preprocessed points ([`blaeu_cluster::assign_points`]);
    /// shards carve the rows.
    ClaraAssign {
        /// Columns preprocessed into the point set.
        columns: Vec<String>,
        /// Medoid row indices (into the point set).
        medoids: Vec<usize>,
    },
}

/// Parses a wire column list with the same bounds as `Command`'s
/// `project` list.
fn parse_columns(value: Option<&Value>, what: &str) -> Result<Vec<String>> {
    let entries = value
        .and_then(Value::as_array)
        .ok_or_else(|| BlaeuError::Invalid(format!("sketch op needs a {what:?} array")))?;
    if entries.len() > Command::MAX_WIRE_COLUMNS {
        return Err(BlaeuError::Invalid(format!(
            "{what:?} exceeds {} entries",
            Command::MAX_WIRE_COLUMNS
        )));
    }
    entries
        .iter()
        .map(|c| {
            c.as_str()
                .filter(|s| s.len() <= Command::MAX_WIRE_STRING)
                .map(str::to_owned)
                .ok_or_else(|| {
                    BlaeuError::Invalid(format!("{what:?} entries must be bounded strings"))
                })
        })
        .collect()
}

impl SketchOp {
    /// Most bins a histogram op may ask for. The bin layout is allocated
    /// up front, and a failed allocation aborts the process instead of
    /// unwinding, so the request is refused before planning starts.
    pub const MAX_HISTOGRAM_BINS: usize = 1024;

    /// Plans the op against a view: validates columns and runs the op's
    /// deterministic phase-1 (pair discretization, bin layout, point
    /// preprocessing).
    ///
    /// # Errors
    /// Unknown columns, empty views (for the point-based op),
    /// out-of-range medoids and histograms of more than
    /// [`SketchOp::MAX_HISTOGRAM_BINS`] bins surface as typed errors.
    pub fn plan(&self, view: &TableView) -> Result<SketchPlan> {
        match self {
            SketchOp::DepMatrix { columns } => {
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                let sketch = DepMatrixSketch::prepare(view, &cols, &DependencyOptions::default())?;
                Ok(SketchPlan::Dep(sketch))
            }
            SketchOp::Describe { column, top_k } => {
                let col = view.col_by_name(column)?;
                let kind = describe_kind(&col);
                Ok(SketchPlan::Describe {
                    view: view.clone(),
                    column: column.clone(),
                    kind,
                    top_k: *top_k,
                })
            }
            SketchOp::Histogram { column, bins } => {
                if *bins > Self::MAX_HISTOGRAM_BINS {
                    return Err(BlaeuError::Invalid(format!(
                        "histogram of {bins} bins exceeds the {}-bin limit",
                        Self::MAX_HISTOGRAM_BINS
                    )));
                }
                let col = view.col_by_name(column)?;
                let sketch = histogram_prepare(&col, *bins);
                Ok(SketchPlan::Histogram {
                    view: view.clone(),
                    column: column.clone(),
                    sketch,
                })
            }
            SketchOp::ClaraAssign { columns, medoids } => {
                if medoids.is_empty() {
                    return Err(BlaeuError::Invalid(
                        "clara_assign needs at least one medoid".into(),
                    ));
                }
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                let points = preprocess(view, &cols, &PreprocessConfig::default())?
                    .into_points(MetricChoice::Gower);
                if let Some(&bad) = medoids.iter().find(|&&m| m >= points.len()) {
                    return Err(BlaeuError::Invalid(format!(
                        "medoid {bad} out of range for {} rows",
                        points.len()
                    )));
                }
                Ok(SketchPlan::Assign {
                    points: Box::new(points),
                    medoids: medoids.clone(),
                })
            }
        }
    }

    /// Finalizes a fully merged partial into the analysis result. Needs
    /// no table data.
    ///
    /// # Errors
    /// A partial whose shape does not match the op (wrong kind, wrong
    /// cell count) is a typed error, never a panic.
    pub fn finalize(&self, partial: SketchPartial) -> Result<SketchResult> {
        match (self, partial) {
            (SketchOp::DepMatrix { columns }, SketchPartial::Dep(cells)) => {
                let m = columns.len();
                if cells.len() != m * m.saturating_sub(1) / 2 {
                    return Err(BlaeuError::Invalid(format!(
                        "dependency partial has {} cells, expected {}",
                        cells.len(),
                        m * m.saturating_sub(1) / 2
                    )));
                }
                Ok(SketchResult::Dep(finalize_dep_cells(
                    columns.clone(),
                    &cells,
                )))
            }
            (SketchOp::Describe { top_k, .. }, SketchPartial::Describe(partial)) => {
                Ok(SketchResult::Describe(finalize_describe(partial, *top_k)))
            }
            (SketchOp::Histogram { bins, .. }, SketchPartial::Histogram(partial)) => {
                Ok(SketchResult::Histogram(finalize_histogram(partial, *bins)))
            }
            (SketchOp::ClaraAssign { .. }, SketchPartial::Assign(partial)) => {
                let (labels, total_deviation) = blaeu_cluster::finalize_assign(partial);
                Ok(SketchResult::Assign {
                    labels,
                    total_deviation,
                })
            }
            (op, partial) => Err(BlaeuError::Invalid(format!(
                "sketch partial kind does not match op: {} vs {}",
                partial.kind_tag(),
                op.tag()
            ))),
        }
    }

    fn tag(&self) -> &'static str {
        match self {
            SketchOp::DepMatrix { .. } => "dep_matrix",
            SketchOp::Describe { .. } => "describe",
            SketchOp::Histogram { .. } => "histogram",
            SketchOp::ClaraAssign { .. } => "clara_assign",
        }
    }

    /// Serializes the op to its wire object (nested inside the `sketch`
    /// command envelope).
    pub fn to_json(&self) -> Value {
        match self {
            SketchOp::DepMatrix { columns } => {
                json!({"op": "dep_matrix", "columns": columns.clone()})
            }
            SketchOp::Describe { column, top_k } => {
                json!({"op": "describe", "column": column.clone(), "top_k": *top_k})
            }
            SketchOp::Histogram { column, bins } => {
                json!({"op": "histogram", "column": column.clone(), "bins": *bins})
            }
            SketchOp::ClaraAssign { columns, medoids } => {
                json!({"op": "clara_assign", "columns": columns.clone(), "medoids": medoids.clone()})
            }
        }
    }

    /// Parses an op from its wire object with the same adversarial-input
    /// bounds as [`Command::from_json`].
    ///
    /// # Errors
    /// Returns [`BlaeuError::Invalid`] for unknown or malformed ops.
    pub fn from_json(value: &Value) -> Result<SketchOp> {
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| BlaeuError::Invalid("sketch op needs an \"op\" field".into()))?;
        let index = |field: &str| -> Result<usize> {
            value
                .get(field)
                .and_then(Value::as_u64)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| {
                    BlaeuError::Invalid(format!(
                        "sketch op {op:?} needs non-negative integer field {field:?}"
                    ))
                })
        };
        let text = |field: &str| -> Result<String> {
            let s = value.get(field).and_then(Value::as_str).ok_or_else(|| {
                BlaeuError::Invalid(format!("sketch op {op:?} needs string field {field:?}"))
            })?;
            if s.len() > Command::MAX_WIRE_STRING {
                return Err(BlaeuError::Invalid(format!(
                    "sketch op {op:?} field {field:?} exceeds {} bytes",
                    Command::MAX_WIRE_STRING
                )));
            }
            Ok(s.to_owned())
        };
        Ok(match op {
            "dep_matrix" => SketchOp::DepMatrix {
                columns: parse_columns(value.get("columns"), "columns")?,
            },
            "describe" => SketchOp::Describe {
                column: text("column")?,
                top_k: index("top_k")?,
            },
            "histogram" => SketchOp::Histogram {
                column: text("column")?,
                bins: index("bins")?,
            },
            "clara_assign" => {
                let entries = value
                    .get("medoids")
                    .and_then(Value::as_array)
                    .ok_or_else(|| {
                        BlaeuError::Invalid("sketch op needs a \"medoids\" array".into())
                    })?;
                if entries.len() > Command::MAX_WIRE_COLUMNS {
                    return Err(BlaeuError::Invalid(format!(
                        "\"medoids\" exceeds {} entries",
                        Command::MAX_WIRE_COLUMNS
                    )));
                }
                let medoids = entries
                    .iter()
                    .map(|m| {
                        m.as_u64()
                            .and_then(|v| usize::try_from(v).ok())
                            .ok_or_else(|| {
                                BlaeuError::Invalid(
                                    "\"medoids\" entries must be non-negative integers".into(),
                                )
                            })
                    })
                    .collect::<Result<Vec<usize>>>()?;
                SketchOp::ClaraAssign {
                    columns: parse_columns(value.get("columns"), "columns")?,
                    medoids,
                }
            }
            other => return Err(BlaeuError::Invalid(format!("unknown sketch op {other:?}"))),
        })
    }
}

/// A planned sketch op, bound to a view: phase-1 state plus everything
/// [`SketchPlan::run_range`] needs.
#[derive(Debug, Clone)]
pub enum SketchPlan {
    /// Dependency sweep: discretized columns and the pair list.
    Dep(DepMatrixSketch),
    /// Describe sweep over one column of the view.
    Describe {
        /// The view being summarized.
        view: TableView,
        /// Column to summarize.
        column: String,
        /// Accumulator kind, from the column type.
        kind: DescribeKind,
        /// Categorical top-list cap (kept for symmetry; finalize re-reads
        /// it from the op).
        top_k: usize,
    },
    /// Histogram sweep over one column of the view.
    Histogram {
        /// The view being summarized.
        view: TableView,
        /// Column to bin.
        column: String,
        /// Settled bin layout and discretizer.
        sketch: HistogramSketch,
    },
    /// CLARA assignment sweep over preprocessed points.
    Assign {
        /// Gower-preprocessed point set (boxed: the flat matrix is large).
        points: Box<Points>,
        /// Medoid row indices.
        medoids: Vec<usize>,
    },
}

impl SketchPlan {
    /// The plan's canonical shard layout: dependency sweeps shard the
    /// column-pair space, the row sketches shard rows.
    pub fn spec(&self) -> ShardSpec {
        match self {
            SketchPlan::Dep(sketch) => sketch.shard_spec().clone(),
            SketchPlan::Describe { view, .. } | SketchPlan::Histogram { view, .. } => {
                row_shard_spec(view.nrows())
            }
            SketchPlan::Assign { points, .. } => row_shard_spec(points.len()),
        }
    }

    /// Executes a contiguous range of canonical shards on `threads`
    /// workers (0 = all cores) and merges the per-shard partials in
    /// shard order. `run_range` over the full shard range is
    /// bit-identical to the direct analysis.
    ///
    /// # Panics
    /// Panics if the range exceeds the plan's shard count.
    pub fn run_range(&self, shards: std::ops::Range<usize>, threads: usize) -> SketchPartial {
        let spec = self.spec();
        assert!(
            shards.end <= spec.shard_count(),
            "shard range {shards:?} exceeds {} shards",
            spec.shard_count()
        );
        let start = shards.start;
        match self {
            SketchPlan::Dep(sketch) => SketchPartial::Dep(sketch.run_range(shards, threads)),
            SketchPlan::Describe {
                view, column, kind, ..
            } => {
                let col = view.col_by_name(column).expect("validated at plan time");
                let parts = par_map_range_grained(shards.len(), threads, 1, |i| {
                    describe_shard(&col, spec.range(start + i))
                });
                let mut merged = DescribePartial::empty(*kind);
                for p in parts {
                    merged.merge(p);
                }
                SketchPartial::Describe(merged)
            }
            SketchPlan::Histogram {
                view,
                column,
                sketch,
            } => {
                let col = view.col_by_name(column).expect("validated at plan time");
                let parts = par_map_range_grained(shards.len(), threads, 1, |i| {
                    histogram_shard(&col, sketch, spec.range(start + i))
                });
                let mut merged = HistogramPartial::empty(sketch);
                for p in parts {
                    merged.merge(p);
                }
                SketchPartial::Histogram(merged)
            }
            SketchPlan::Assign { points, medoids } => {
                let kernel = points.block_kernel();
                let parts = par_map_range_grained(shards.len(), threads, 1, |i| {
                    let (labels, total) = assign_shard(&kernel, medoids, spec.range(start + i));
                    AssignPartial {
                        labels,
                        totals: vec![total],
                    }
                });
                let mut merged = AssignPartial::empty();
                for p in parts {
                    merged.merge(p);
                }
                SketchPartial::Assign(merged)
            }
        }
    }
}

/// A mergeable partial result of a sketch op over a contiguous shard
/// range.
#[derive(Debug, Clone)]
pub enum SketchPartial {
    /// Dependency cells in shard (pair) order.
    Dep(Vec<f64>),
    /// Describe accumulator.
    Describe(DescribePartial),
    /// Histogram accumulator.
    Histogram(HistogramPartial),
    /// Assignment labels and per-shard deviation sums.
    Assign(AssignPartial),
}

impl SketchPartial {
    fn kind_tag(&self) -> &'static str {
        match self {
            SketchPartial::Dep(_) => "dep",
            SketchPartial::Describe(_) => "describe",
            SketchPartial::Histogram(_) => "histogram",
            SketchPartial::Assign(_) => "assign",
        }
    }

    /// Merges the next shard range's partial into this one, in shard
    /// order. Fallible, never panicking: kind or layout mismatches
    /// surface as typed errors.
    ///
    /// # Errors
    /// Returns [`BlaeuError::Invalid`] when the partials cannot merge.
    pub fn merge(&mut self, other: SketchPartial) -> Result<()> {
        match (self, other) {
            (SketchPartial::Dep(a), SketchPartial::Dep(b)) => {
                merge_dep_cells(a, b);
                Ok(())
            }
            (SketchPartial::Describe(a), SketchPartial::Describe(b)) => {
                if a.kind() != b.kind() {
                    return Err(BlaeuError::Invalid(
                        "describe partials disagree on column kind".into(),
                    ));
                }
                a.merge(b);
                Ok(())
            }
            (SketchPartial::Histogram(a), SketchPartial::Histogram(b)) => {
                if !a.compatible(&b) {
                    return Err(BlaeuError::Invalid(
                        "histogram partials disagree on bin layout".into(),
                    ));
                }
                a.merge(b);
                Ok(())
            }
            (SketchPartial::Assign(a), SketchPartial::Assign(b)) => {
                a.merge(b);
                Ok(())
            }
            (a, b) => Err(BlaeuError::Invalid(format!(
                "cannot merge sketch partials of different kinds: {} vs {}",
                a.kind_tag(),
                b.kind_tag()
            ))),
        }
    }
}

/// The finalized result of a sketch op, once every partial has merged.
#[derive(Debug, Clone)]
pub enum SketchResult {
    /// The dependency matrix.
    Dep(DependencyMatrix),
    /// The column summary.
    Describe(ColumnSummary),
    /// The histogram.
    Histogram(Histogram),
    /// Assignment labels and the total deviation.
    Assign {
        /// Nearest-medoid slot per row.
        labels: Vec<usize>,
        /// Shard-order-folded total deviation.
        total_deviation: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaeu_store::{Column, TableBuilder};

    fn view() -> TableView {
        let n = 400;
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let ys: Vec<f64> = xs.iter().map(|v| v * 2.0 + 1.0).collect();
        let labels: Vec<String> = (0..n).map(|i| format!("g{}", i % 7)).collect();
        TableBuilder::new("t")
            .column("x", Column::dense_f64(xs))
            .unwrap()
            .column("y", Column::dense_f64(ys))
            .unwrap()
            .column(
                "g",
                Column::from_strs(labels.iter().map(|s| Some(s.as_str()))),
            )
            .unwrap()
            .build()
            .unwrap()
            .into()
    }

    fn ops() -> Vec<SketchOp> {
        vec![
            SketchOp::DepMatrix {
                columns: vec!["x".into(), "y".into(), "g".into()],
            },
            SketchOp::Describe {
                column: "x".into(),
                top_k: 5,
            },
            SketchOp::Describe {
                column: "g".into(),
                top_k: 3,
            },
            SketchOp::Histogram {
                column: "y".into(),
                bins: 8,
            },
            SketchOp::Histogram {
                column: "g".into(),
                bins: 4,
            },
            SketchOp::ClaraAssign {
                columns: vec!["x".into(), "y".into(), "g".into()],
                medoids: vec![3, 170, 390],
            },
        ]
    }

    #[test]
    fn ops_round_trip_through_json() {
        for op in ops() {
            let wire = op.to_json();
            assert_eq!(SketchOp::from_json(&wire).unwrap(), op, "wire {wire:?}");
        }
    }

    #[test]
    fn malformed_ops_rejected() {
        for bad in [
            json!({}),
            json!({"op": "warp"}),
            json!({"op": "describe", "column": "x"}),
            json!({"op": "describe", "column": 7, "top_k": 1}),
            json!({"op": "histogram", "column": "x", "bins": -1i64}),
            json!({"op": "dep_matrix", "columns": [1]}),
            json!({"op": "clara_assign", "columns": ["x"], "medoids": [-1i64]}),
            json!({"op": "clara_assign", "columns": ["x"]}),
        ] {
            assert!(SketchOp::from_json(&bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn split_shard_ranges_merge_bit_identical_to_full_run() {
        let view = view();
        for op in ops() {
            let plan = op.plan(&view).unwrap();
            let spec = plan.spec();
            let full = plan.run_range(0..spec.shard_count(), 0);
            let reference = op.finalize(full).unwrap();
            // Split the shard space at every boundary; merged halves must
            // finalize to the same bits.
            for cut in 0..=spec.shard_count() {
                let mut left = plan.run_range(0..cut, 1);
                let right = plan.run_range(cut..spec.shard_count(), 1);
                left.merge(right).unwrap();
                let split = op.finalize(left).unwrap();
                assert_eq!(
                    format!("{reference:?}"),
                    format!("{split:?}"),
                    "op {op:?} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn sketch_results_match_direct_analyses() {
        let view = view();

        let op = SketchOp::Describe {
            column: "x".into(),
            top_k: 5,
        };
        let plan = op.plan(&view).unwrap();
        let partial = plan.run_range(0..plan.spec().shard_count(), 0);
        let SketchResult::Describe(summary) = op.finalize(partial).unwrap() else {
            panic!("wrong result kind");
        };
        let col = view.col_by_name("x").unwrap();
        assert_eq!(
            format!("{summary:?}"),
            format!("{:?}", blaeu_stats::describe(&col, 5))
        );

        let op = SketchOp::Histogram {
            column: "y".into(),
            bins: 8,
        };
        let plan = op.plan(&view).unwrap();
        let partial = plan.run_range(0..plan.spec().shard_count(), 0);
        let SketchResult::Histogram(hist) = op.finalize(partial).unwrap() else {
            panic!("wrong result kind");
        };
        let col = view.col_by_name("y").unwrap();
        assert_eq!(hist, blaeu_stats::histogram(&col, 8));

        let op = SketchOp::ClaraAssign {
            columns: vec!["x".into(), "y".into(), "g".into()],
            medoids: vec![3, 170, 390],
        };
        let plan = op.plan(&view).unwrap();
        let partial = plan.run_range(0..plan.spec().shard_count(), 0);
        let SketchResult::Assign {
            labels,
            total_deviation,
        } = op.finalize(partial).unwrap()
        else {
            panic!("wrong result kind");
        };
        let points = preprocess(&view, &["x", "y", "g"], &PreprocessConfig::default())
            .unwrap()
            .into_points(MetricChoice::Gower);
        let (direct_labels, direct_total) = blaeu_cluster::assign_points(&points, &[3, 170, 390]);
        assert_eq!(labels, direct_labels);
        assert_eq!(total_deviation.to_bits(), direct_total.to_bits());
    }

    #[test]
    fn mismatched_partials_are_typed_errors() {
        let mut dep = SketchPartial::Dep(vec![0.5]);
        let assign = SketchPartial::Assign(AssignPartial::empty());
        assert!(dep.merge(assign).is_err());
        let op = SketchOp::DepMatrix {
            columns: vec!["a".into(), "b".into()],
        };
        assert!(op.finalize(SketchPartial::Dep(vec![0.1, 0.2])).is_err());
        assert!(op
            .finalize(SketchPartial::Assign(AssignPartial::empty()))
            .is_err());
    }

    #[test]
    fn oversized_histograms_are_refused_before_planning() {
        let view = view();
        let op = |bins| SketchOp::Histogram {
            column: "y".into(),
            bins,
        };
        assert!(op(SketchOp::MAX_HISTOGRAM_BINS).plan(&view).is_ok());
        for bins in [SketchOp::MAX_HISTOGRAM_BINS + 1, 1 << 40, usize::MAX] {
            match op(bins).plan(&view) {
                Err(BlaeuError::Invalid(message)) => assert!(message.contains("bins"), "{message}"),
                other => panic!("{bins} bins planned: {other:?}"),
            }
        }
    }
}
