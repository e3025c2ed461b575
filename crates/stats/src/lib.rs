//! # blaeu-stats — statistics substrate
//!
//! The statistical machinery that the paper delegates to R: discretization,
//! Shannon entropy, (normalized) mutual information over mixed-type column
//! pairs, Pearson/Spearman correlation, column summaries and histograms.
//! The centerpiece is [`dependency_matrix`], which computes the pairwise
//! column-dependency weights of Blaeu's *dependency graph* (Figure 2 of the
//! paper) with per-pair NMI, optional row sampling and a parallel sweep.
//!
//! ```
//! use blaeu_store::{Column, TableBuilder, TableView};
//! use blaeu_stats::{dependency_matrix, DependencyOptions};
//!
//! let xs: Vec<f64> = (0..300).map(|i| i as f64 / 10.0).collect();
//! let ys: Vec<f64> = xs.iter().map(|v| v * 2.0).collect();
//! let view: TableView = TableBuilder::new("t")
//!     .column("x", Column::dense_f64(xs)).unwrap()
//!     .column("y", Column::dense_f64(ys)).unwrap()
//!     .build().unwrap()
//!     .into();
//!
//! let dm = dependency_matrix(&view, &["x", "y"], &DependencyOptions::default()).unwrap();
//! assert!(dm.get(0, 1) > 0.8); // strong dependency
//! ```

#![warn(missing_docs)]

pub mod binning;
pub mod chi2;
pub mod contingency;
pub mod correlation;
pub mod describe;
pub mod entropy;
pub mod histogram;
pub mod mi;
pub mod scatter;

pub use binning::{discretize, BinRule, BinStrategy, DiscreteColumn, Discretizer};
pub use chi2::{chi2_test, Chi2Test};
pub use contingency::ContingencyTable;
pub use correlation::{pearson, ranks, spearman};
pub use describe::{
    describe, sort_total, CategoricalSummary, ColumnSummary, NumericSummary, SORT_TOTAL_RADIX_MIN,
};
pub use entropy::{entropy, entropy_from_counts, joint_entropy};
pub use histogram::{histogram, Histogram};
pub use mi::{
    dependency_matrix, mutual_information, normalized_mutual_information, DependencyMatrix,
    DependencyMeasure, DependencyOptions, MiNormalization,
};
pub use scatter::ScatterGrid;
