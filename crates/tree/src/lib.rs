//! # blaeu-tree — CART decision trees for cluster description
//!
//! The third stage of Blaeu's mapping pipeline (Figure 3 of the paper):
//! after PAM detects clusters, a CART tree is trained on the *original*
//! tuples with the cluster IDs as class labels. The tree approximates the
//! clustering with a hierarchy of interpretable single-column tests — the
//! data map. This crate implements the tree itself ([`DecisionTree`]),
//! rule extraction back to evaluable/SQL-renderable predicates
//! ([`leaf_rules`]) and fidelity measures ([`eval`]).
//!
//! ```
//! use blaeu_store::{Column, TableBuilder, TableView};
//! use blaeu_tree::{CartConfig, DecisionTree};
//!
//! let view: TableView = TableBuilder::new("t")
//!     .column("hours", Column::dense_f64(
//!         (0..40).map(|i| if i < 20 { 10.0 + i as f64 * 0.1 } else { 25.0 + i as f64 * 0.1 }).collect()))
//!     .unwrap()
//!     .build()
//!     .unwrap()
//!     .into();
//! let clusters: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
//!
//! let tree = DecisionTree::fit(&view, &["hours"], &clusters, &CartConfig::default()).unwrap();
//! assert_eq!(tree.n_leaves(), 2);
//! assert_eq!(tree.predict(&view).unwrap(), clusters);
//! ```

#![warn(missing_docs)]

pub mod cart;
pub mod eval;
pub mod impurity;
pub mod node;
pub mod prune;
pub mod rules;

pub use cart::{CartConfig, DecisionTree};
pub use eval::accuracy;
pub use impurity::Criterion;
pub use node::{Node, SplitRule};
pub use prune::{alpha_path, prune};
pub use rules::{leaf_rules, LeafRule, PathConstraints};
