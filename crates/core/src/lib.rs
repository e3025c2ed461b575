//! # blaeu-core — the Blaeu exploration engine
//!
//! A from-scratch reproduction of *Blaeu: Mapping and Navigating Large
//! Tables with Cluster Analysis* (Sellam, Cijvat, Koopmanschap, Kersten —
//! VLDB 2016). Blaeu guides casual users through large tables with a
//! double cluster analysis:
//!
//! 1. **Themes** (vertical clustering): columns are grouped by mutual
//!    information into groups of mutually dependent columns
//!    ([`detect_themes`], [`DependencyGraph`]).
//! 2. **Data maps** (horizontal clustering): for the chosen theme, rows
//!    are sampled, preprocessed into vectors, clustered with PAM/CLARA
//!    (k chosen by the silhouette coefficient) and described by a CART
//!    decision tree — an interactive hierarchy of interpretable regions
//!    ([`build_map`], [`DataMap`]).
//!
//! The [`Explorer`] exposes the paper's four navigational actions — zoom,
//! highlight, project, rollback — and renders the implicit Select-Project
//! query as SQL. [`SessionManager`] hosts concurrent sessions (the
//! paper's NodeJS tier); [`render`] holds terminal/SVG/JSON renderers
//! (the paper's D3 client).
//!
//! ```
//! use blaeu_core::{Explorer, ExplorerConfig};
//! use blaeu_store::generate::{oecd, OecdConfig};
//!
//! let (table, _) = oecd(&OecdConfig { nrows: 300, ncols: 24, ..OecdConfig::default() }).unwrap();
//! let mut explorer = Explorer::open(table, ExplorerConfig::default()).unwrap();
//!
//! // Pick a theme, build its map, zoom into the largest region.
//! let map = explorer.select_theme(0).unwrap();
//! let biggest = map.leaves().iter().max_by_key(|r| r.count).unwrap().id;
//! explorer.zoom(biggest).unwrap();
//! println!("{}", explorer.sql());
//! explorer.rollback().unwrap();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod command;
pub mod depgraph;
pub mod error;
pub mod explorer;
pub mod map;
pub mod mapper;
pub mod preprocess;
pub mod progressive;
pub mod render;
pub mod session;
pub mod sketch;
pub mod themes;

pub use cache::{AnalysisMemo, MapKey, ThemesKey, ViewFingerprint};
pub use command::{Command, Response};
pub use depgraph::DependencyGraph;
pub use error::{BlaeuError, Result};
pub use explorer::{
    Explorer, ExplorerConfig, ExplorerState, Highlight, RegionDetail, RegionHighlight,
};
pub use map::{DataMap, Region};
pub use mapper::{build_map, KChoice, MapperConfig};
pub use preprocess::{
    analyzable_columns, preprocess, FeatureInfo, FeatureMatrix, MetricChoice, MissingPolicy,
    PreprocessConfig,
};
pub use progressive::{ProgressiveMap, RefinementDelta};
pub use session::{SessionId, SessionManager};
pub use sketch::{SketchOp, SketchPartial, SketchPlan, SketchResult};
pub use themes::{detect_themes, Theme, ThemeConfig, ThemeSet};
