//! # blaeu-cluster — cluster analysis engine
//!
//! The clustering substrate of Blaeu, replacing the R `cluster` package the
//! paper builds on: PAM (k-medoids, the paper's algorithm of choice for
//! both themes and maps), CLARA (its sampling-based variant for large
//! data), a k-means baseline, exact and Monte-Carlo silhouette scoring,
//! silhouette-driven selection of the number of clusters, and external
//! validation measures (ARI, NMI, purity) for the experiment harness.
//!
//! ```
//! use blaeu_cluster::{pam, DistanceMatrix, Metric, PamConfig, Points};
//!
//! let rows = vec![
//!     vec![0.0], vec![0.2], vec![0.1],   // blob A
//!     vec![9.0], vec![9.1], vec![8.9],   // blob B
//! ];
//! let points = Points::new(rows, Metric::Euclidean);
//! let matrix = DistanceMatrix::from_points(&points);
//! let result = pam(&matrix, 2, &PamConfig::default());
//! assert_eq!(result.labels[0], result.labels[1]);
//! assert_ne!(result.labels[0], result.labels[3]);
//! ```

#![warn(missing_docs)]

pub mod clara;
pub mod distance;
pub mod eval;
pub mod hierarchical;
pub mod kmeans;
pub mod kselect;
pub mod matrix;
pub mod pam;
pub mod silhouette;

pub use clara::{assign_points, clara, ClaraConfig};
pub use distance::{BlockKernel, CatBlock, Metric, Points, CODE_NULL};
pub use eval::{accuracy, adjusted_rand_index, label_nmi, purity};
pub use hierarchical::{agglomerative, Dendrogram, Linkage, Merge};
pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
pub use kselect::{select_k, KSelectConfig, KSelection};
pub use matrix::DistanceMatrix;
pub use pam::{assign_to_medoids, pam, PamConfig, PamResult};
pub use silhouette::{
    mc_silhouette, medoid_silhouette, silhouette_samples, silhouette_score, McSilhouetteConfig,
};
