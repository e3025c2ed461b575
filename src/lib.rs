//! # blaeu — mapping and navigating large tables with cluster analysis
//!
//! A complete, pure-Rust reproduction of *Blaeu: Mapping and Navigating
//! Large Tables with Cluster Analysis* (Sellam, Cijvat, Koopmanschap,
//! Kersten — PVLDB 9(13), VLDB 2016), including every substrate the paper
//! builds on:
//!
//! * [`store`] — columnar in-memory storage, CSV ingestion, Select-Project
//!   queries, multi-scale sampling, synthetic dataset generators
//!   (the paper's MonetDB tier).
//! * [`stats`] — entropy, mutual information, correlation, summaries
//!   (the paper's R statistics).
//! * [`cluster`] — PAM, CLARA, k-means, silhouette (exact & Monte-Carlo),
//!   model selection, validation (the R `cluster` package).
//! * [`tree`] — CART decision trees and rule extraction (R `rpart`).
//! * [`core`] — themes, data maps, the zoom/highlight/project/rollback
//!   explorer, sessions and renderers (the Blaeu system itself).
//! * [`exec`] — the shared parallel-execution substrate every hot sweep
//!   routes through: one process-wide thread budget, deterministic
//!   ordering, and nesting-aware degradation.
//!
//! ## Quickstart
//!
//! ```
//! use blaeu::prelude::*;
//!
//! // A dataset shaped like the paper's OECD "Countries & Work" demo.
//! let (table, _truth) = oecd(&OecdConfig { nrows: 300, ncols: 24, ..OecdConfig::default() }).unwrap();
//!
//! // Open an explorer: themes are detected immediately.
//! let mut explorer = Explorer::open(table, ExplorerConfig::default()).unwrap();
//! assert!(!explorer.themes().is_empty());
//!
//! // Select a theme to get a data map, then navigate.
//! let map = explorer.select_theme(0).unwrap();
//! let region = map.leaves()[0].id;
//! explorer.zoom(region).unwrap();
//! let _countries = explorer.highlight("country").unwrap();
//! explorer.rollback().unwrap();
//! ```

#![warn(missing_docs)]

pub mod repl;

pub use blaeu_cluster as cluster;
pub use blaeu_core as core;
pub use blaeu_exec as exec;
pub use blaeu_net as net;
pub use blaeu_server as server;
pub use blaeu_stats as stats;
pub use blaeu_store as store;
pub use blaeu_tree as tree;

/// One-stop imports for typical use.
pub mod prelude {
    pub use blaeu_cluster::{
        adjusted_rand_index, agglomerative, clara, kmeans, label_nmi, pam, select_k,
        silhouette_score, ClaraConfig, DistanceMatrix, KMeansConfig, KSelectConfig, Linkage,
        Metric, PamConfig, Points,
    };
    pub use blaeu_core::{
        build_map, detect_themes, render, BlaeuError, Command, DataMap, DependencyGraph, Explorer,
        ExplorerConfig, Highlight, KChoice, MapperConfig, Region, Response, SessionManager, Theme,
        ThemeConfig, ThemeSet,
    };
    pub use blaeu_exec::{JobHandle, JobPool};
    pub use blaeu_net::{NetConfig, NetServer};
    pub use blaeu_server::{
        AnalysisCache, AsyncSessionServer, CacheStats, FsyncPolicy, RecoveryReport, ServerConfig,
        SessionJournal,
    };
    pub use blaeu_stats::{
        chi2_test, dependency_matrix, describe, histogram, DependencyMeasure, DependencyOptions,
        ScatterGrid,
    };
    pub use blaeu_store::generate::{
        hollywood, lofar, oecd, planted, HollywoodConfig, LofarConfig, OecdConfig, PlantedConfig,
    };
    pub use blaeu_store::{
        read_csv_str, Column, ColumnRead, CsvOptions, Predicate, SelectProject, Table,
        TableBuilder, TableView,
    };
    pub use blaeu_tree::{leaf_rules, CartConfig, DecisionTree};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let t = TableBuilder::new("t")
            .column("x", Column::dense_f64(vec![1.0, 2.0]))
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(t.nrows(), 2);
    }
}
