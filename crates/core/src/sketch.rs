//! Sketch operations — the analysis kernels behind `Command::Sketch`.
//!
//! A [`SketchOp`] names one of the four kernels Blaeu's highlight,
//! themes and maps rest on (the dependency matrix, column summaries,
//! histograms and CLARA's assignment sweep) as wire data.
//! [`SketchOp::run`] answers it by calling that kernel on a view, so a
//! sketch answer is bit-identical to the analysis the explorer runs.

use std::collections::HashSet;

use serde_json::{json, Value};

use blaeu_cluster::assign_points;
use blaeu_stats::{
    dependency_matrix, describe, histogram, ColumnSummary, DependencyMatrix, DependencyOptions,
    Histogram,
};
use blaeu_store::TableView;

use crate::command::Command;
use crate::error::{BlaeuError, Result};
use crate::preprocess::{preprocess, MetricChoice, PreprocessConfig};

/// One kernel call, as data.
///
/// Analysis parameters are pinned to the engine defaults (dependency
/// options, Gower preprocessing), so a result depends only on the op and
/// the view.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchOp {
    /// Pairwise dependency cells over the named columns
    /// ([`blaeu_stats::dependency_matrix`] with default options).
    DepMatrix {
        /// Columns to sweep, in order.
        columns: Vec<String>,
    },
    /// Column summary ([`blaeu_stats::describe()`]).
    Describe {
        /// Column to summarize.
        column: String,
        /// Categorical top-list cap.
        top_k: usize,
    },
    /// Column histogram ([`blaeu_stats::histogram()`]).
    Histogram {
        /// Column to bin.
        column: String,
        /// Requested bin count.
        bins: usize,
    },
    /// CLARA assignment sweep: label every row with its nearest medoid
    /// over Gower-preprocessed points ([`blaeu_cluster::assign_points`]).
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

/// The column list as names, refusing repeats before any work: every
/// repeat of a column adds its dims to the preprocessed matrix and its
/// pairs to the dependency sweep.
fn distinct(columns: &[String]) -> Result<Vec<&str>> {
    let mut seen = HashSet::with_capacity(columns.len());
    for c in columns {
        if !seen.insert(c.as_str()) {
            return Err(BlaeuError::Invalid(format!(
                "column {c:?} appears more than once"
            )));
        }
    }
    Ok(columns.iter().map(String::as_str).collect())
}

impl SketchOp {
    /// Most bins a histogram op may ask for. The bin layout is allocated
    /// up front, and a failed allocation aborts the process instead of
    /// unwinding, so the request is refused before the column is read.
    pub const MAX_HISTOGRAM_BINS: usize = 1024;

    /// Runs the op's kernel on a view.
    ///
    /// # Errors
    /// Column lists naming a column twice, unknown columns, empty views
    /// (for the point-based op), out-of-range medoids and histograms of
    /// more than [`SketchOp::MAX_HISTOGRAM_BINS`] bins surface as typed
    /// errors.
    pub fn run(&self, view: &TableView) -> Result<SketchResult> {
        match self {
            SketchOp::DepMatrix { columns } => {
                let cols = distinct(columns)?;
                let matrix = dependency_matrix(view, &cols, &DependencyOptions::default())?;
                Ok(SketchResult::Dep(matrix))
            }
            SketchOp::Describe { column, top_k } => {
                let col = view.col_by_name(column)?;
                Ok(SketchResult::Describe(describe(&col, *top_k)))
            }
            SketchOp::Histogram { column, bins } => {
                if *bins > Self::MAX_HISTOGRAM_BINS {
                    return Err(BlaeuError::Invalid(format!(
                        "histogram of {bins} bins exceeds the {}-bin limit",
                        Self::MAX_HISTOGRAM_BINS
                    )));
                }
                let col = view.col_by_name(column)?;
                Ok(SketchResult::Histogram(histogram(&col, *bins)))
            }
            SketchOp::ClaraAssign { columns, medoids } => {
                let cols = distinct(columns)?;
                if medoids.is_empty() {
                    return Err(BlaeuError::Invalid(
                        "clara_assign needs at least one medoid".into(),
                    ));
                }
                let points = preprocess(view, &cols, &PreprocessConfig::default())?
                    .into_points(MetricChoice::Gower);
                if let Some(&bad) = medoids.iter().find(|&&m| m >= points.len()) {
                    return Err(BlaeuError::Invalid(format!(
                        "medoid {bad} out of range for {} rows",
                        points.len()
                    )));
                }
                let (labels, total_deviation) = assign_points(&points, medoids);
                Ok(SketchResult::Assign {
                    labels,
                    total_deviation,
                })
            }
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

/// The result of a sketch op.
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
        /// Total deviation, folded over row shards in shard order.
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
    fn oversized_histograms_are_refused_before_planning() {
        let view = view();
        let op = |bins| SketchOp::Histogram {
            column: "y".into(),
            bins,
        };
        assert!(op(SketchOp::MAX_HISTOGRAM_BINS).run(&view).is_ok());
        for bins in [SketchOp::MAX_HISTOGRAM_BINS + 1, 1 << 40, usize::MAX] {
            match op(bins).run(&view) {
                Err(BlaeuError::Invalid(message)) => assert!(message.contains("bins"), "{message}"),
                other => panic!("{bins} bins ran: {other:?}"),
            }
        }
    }

    #[test]
    fn repeated_columns_are_refused() {
        let view = view();
        let repeated = vec!["x".to_owned(), "g".to_owned(), "x".to_owned()];
        for op in [
            SketchOp::DepMatrix {
                columns: repeated.clone(),
            },
            SketchOp::ClaraAssign {
                columns: repeated,
                medoids: vec![0],
            },
        ] {
            match op.run(&view) {
                Err(BlaeuError::Invalid(message)) => {
                    assert!(message.contains("more than once"), "{message}")
                }
                other => panic!("{op:?} ran: {other:?}"),
            }
        }
        for op in ops() {
            assert!(op.run(&view).is_ok(), "{op:?}");
        }
    }
}
