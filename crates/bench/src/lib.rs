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
