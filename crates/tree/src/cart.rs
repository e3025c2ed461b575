//! CART — Classification And Regression Trees (Breiman et al. 1984),
//! classification flavor.
//!
//! Blaeu trains a decision tree on the original tuples using cluster IDs as
//! class labels; the tree *is* the data map. The implementation consumes
//! zero-copy `blaeu-store` views directly — fitting on a sampled view and
//! routing a zoomed view never materializes a sub-table: numeric columns
//! split on thresholds, categorical columns on label subsets, and rows with
//! missing test values follow the node's majority direction.

use blaeu_store::{ColumnView, DataType, Result, StoreError, TableView};

use crate::impurity::Criterion;
use crate::node::{Node, SplitRule};

/// Configuration for [`DecisionTree::fit`].
#[derive(Debug, Clone)]
pub struct CartConfig {
    /// Split-quality criterion.
    pub criterion: Criterion,
    /// Maximum tree depth (root = depth 0). The paper's maps are shallow —
    /// depth 2–4 — because they must stay readable.
    pub max_depth: usize,
    /// Minimum rows needed to consider splitting a node.
    pub min_samples_split: usize,
    /// Minimum rows on each side of an admissible split.
    pub min_samples_leaf: usize,
    /// Minimum weighted impurity decrease for a split to be kept.
    pub min_impurity_decrease: f64,
    /// Categorical columns with more distinct values than this are skipped
    /// (their subsets would explode and overfit).
    pub max_categories: usize,
    /// Stop splitting once the majority class reaches this fraction —
    /// keeps maps readable by not carving slivers off near-pure regions.
    pub purity_stop: f64,
    /// Minimum leaf size as a fraction of the fitted table (combined with
    /// `min_samples_leaf` by taking the larger).
    pub min_leaf_fraction: f64,
}

impl Default for CartConfig {
    fn default() -> Self {
        CartConfig {
            criterion: Criterion::Gini,
            max_depth: 4,
            min_samples_split: 10,
            min_samples_leaf: 5,
            min_impurity_decrease: 1e-7,
            max_categories: 32,
            purity_stop: 0.95,
            min_leaf_fraction: 0.02,
        }
    }
}

/// A fitted classification tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    root: Node,
    nclasses: usize,
    features: Vec<String>,
}

struct BestSplit {
    rule: SplitRule,
    decrease: f64,
    default_left: bool,
}

fn class_counts(labels: &[usize], rows: &[u32], nclasses: usize) -> Vec<usize> {
    let mut counts = vec![0usize; nclasses];
    for &r in rows {
        counts[labels[r as usize]] += 1;
    }
    counts
}

/// Scans all thresholds of a numeric column in one sorted pass.
fn best_numeric_split(
    col: &ColumnView<'_>,
    name: &str,
    labels: &[usize],
    rows: &[u32],
    nclasses: usize,
    config: &CartConfig,
) -> Option<BestSplit> {
    let mut pairs: Vec<(f64, usize)> = Vec::with_capacity(rows.len());
    for &r in rows {
        if let Some(v) = col.numeric_at(r as usize) {
            pairs.push((v, labels[r as usize]));
        }
    }
    if pairs.len() < 2 * config.min_samples_leaf {
        return None;
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut total = vec![0usize; nclasses];
    for &(_, l) in &pairs {
        total[l] += 1;
    }
    // The parent impurity is constant across thresholds; left/right counts
    // shift by one row per step. Maintaining them incrementally keeps the
    // scan allocation-free (this loop runs once per candidate threshold of
    // every node × feature, so a per-candidate Vec is real churn).
    let parent_impurity = config.criterion.impurity(&total);
    let mut left = vec![0usize; nclasses];
    let mut right = total.clone();
    let mut best: Option<(f64, f64, bool)> = None; // (decrease, threshold, default_left)
    let n = pairs.len();
    let nf = n as f64;
    for i in 0..n - 1 {
        left[pairs[i].1] += 1;
        right[pairs[i].1] -= 1;
        if pairs[i].0 == pairs[i + 1].0 {
            continue; // can't split between equal values
        }
        let nl = i + 1;
        let nr = n - nl;
        if nl < config.min_samples_leaf || nr < config.min_samples_leaf {
            continue;
        }
        let dec = parent_impurity
            - (nl as f64 / nf) * config.criterion.impurity(&left)
            - (nr as f64 / nf) * config.criterion.impurity(&right);
        let threshold = pairs[i].0.midpoint(pairs[i + 1].0);
        if best.is_none_or(|(bd, bt, _)| dec > bd + 1e-15 || (dec > bd - 1e-15 && threshold < bt)) {
            best = Some((dec, threshold, nl >= nr));
        }
    }
    best.map(|(decrease, threshold, default_left)| BestSplit {
        rule: SplitRule::Numeric {
            column: name.to_owned(),
            threshold,
        },
        decrease,
        default_left,
    })
}

/// Evaluates categorical splits: every single-category split plus prefix
/// subsets of categories ordered by majority-class proportion (the CART
/// ordering trick, exact for two classes).
fn best_categorical_split(
    col: &ColumnView<'_>,
    name: &str,
    labels: &[usize],
    rows: &[u32],
    nclasses: usize,
    config: &CartConfig,
) -> Option<BestSplit> {
    let dict = col.dictionary();
    if dict.len() > config.max_categories || dict.is_empty() {
        return None;
    }
    let ncat = dict.len();
    let mut cat_counts = vec![vec![0usize; nclasses]; ncat];
    let mut total = vec![0usize; nclasses];
    let mut n_valid = 0usize;
    for &r in rows {
        if let Some(code) = col.code_at(r as usize) {
            cat_counts[code as usize][labels[r as usize]] += 1;
            total[labels[r as usize]] += 1;
            n_valid += 1;
        }
    }
    if n_valid < 2 * config.min_samples_leaf {
        return None;
    }
    let majority = total
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| *c)
        .map(|(i, _)| i)
        .unwrap_or(0);

    // Candidate subsets: prefixes of categories sorted by majority-class
    // proportion (descending), which subsumes all single-category splits
    // for 2 classes and is a strong heuristic beyond.
    let mut order: Vec<usize> = (0..ncat)
        .filter(|&c| cat_counts[c].iter().sum::<usize>() > 0)
        .collect();
    order.sort_by(|&a, &b| {
        let pa = cat_counts[a][majority] as f64 / cat_counts[a].iter().sum::<usize>() as f64;
        let pb = cat_counts[b][majority] as f64 / cat_counts[b].iter().sum::<usize>() as f64;
        pb.total_cmp(&pa).then(a.cmp(&b))
    });

    let mut candidates: Vec<Vec<usize>> = Vec::new();
    for prefix_len in 1..order.len() {
        candidates.push(order[..prefix_len].to_vec());
    }
    // Also each singleton (covers one-vs-rest in the multiclass case).
    for &c in &order {
        candidates.push(vec![c]);
    }

    let mut best: Option<(f64, Vec<usize>, bool)> = None;
    for cats in candidates {
        let mut left = vec![0usize; nclasses];
        for &c in &cats {
            for k in 0..nclasses {
                left[k] += cat_counts[c][k];
            }
        }
        let nl: usize = left.iter().sum();
        let nr = n_valid - nl;
        if nl < config.min_samples_leaf || nr < config.min_samples_leaf {
            continue;
        }
        let right: Vec<usize> = total.iter().zip(&left).map(|(t, l)| t - l).collect();
        let dec = config.criterion.decrease(&total, &left, &right);
        let better = match &best {
            None => true,
            Some((bd, bc, _)) => dec > bd + 1e-15 || (dec > bd - 1e-15 && cats.len() < bc.len()),
        };
        if better {
            best = Some((dec, cats, nl >= nr));
        }
    }

    best.map(|(decrease, cats, default_left)| BestSplit {
        rule: SplitRule::Categorical {
            column: name.to_owned(),
            left_categories: cats.iter().map(|&c| dict[c].clone()).collect(),
        },
        decrease,
        default_left,
    })
}

/// A split rule bound to a view: the column handle is resolved and the
/// categorical left-set is translated to a per-code table **once**, so
/// routing a row costs one column access instead of a name lookup plus a
/// string-set scan. This is what keeps bulk routing (fit partitions,
/// [`DecisionTree::predict`], [`DecisionTree::leaf_assignments`]) linear
/// in rows rather than rows × columns.
enum BoundRule<'v> {
    Numeric {
        col: ColumnView<'v>,
        threshold: f64,
    },
    Categorical {
        col: ColumnView<'v>,
        in_left: Vec<bool>,
    },
}

impl<'v> BoundRule<'v> {
    fn bind(rule: &SplitRule, view: &'v TableView) -> BoundRule<'v> {
        let col = view
            .col_by_name(rule.column())
            .expect("feature validated at fit/predict time");
        match rule {
            SplitRule::Numeric { threshold, .. } => BoundRule::Numeric {
                col,
                threshold: *threshold,
            },
            SplitRule::Categorical {
                left_categories, ..
            } => {
                let in_left = col
                    .dictionary()
                    .iter()
                    .map(|label| left_categories.iter().any(|c| c == label))
                    .collect();
                BoundRule::Categorical { col, in_left }
            }
        }
    }

    /// `None` = missing test value (caller applies the node's default).
    fn route(&self, row: usize) -> Option<bool> {
        match self {
            BoundRule::Numeric { col, threshold } => col.numeric_at(row).map(|v| v < *threshold),
            BoundRule::Categorical { col, in_left } => {
                col.code_at(row).map(|code| in_left[code as usize])
            }
        }
    }
}

/// Recursively partitions `rows` down the tree, invoking `on_leaf` with
/// each leaf node, its left-to-right leaf index, and the rows that landed
/// on it. Columns are bound once per node, not once per row.
fn partition_rows(
    node: &Node,
    view: &TableView,
    rows: Vec<u32>,
    leaf_base: usize,
    on_leaf: &mut impl FnMut(&Node, usize, &[u32]),
) {
    match node {
        Node::Leaf { .. } => on_leaf(node, leaf_base, &rows),
        Node::Internal {
            rule,
            default_left,
            left,
            right,
            ..
        } => {
            let bound = BoundRule::bind(rule, view);
            let mut left_rows = Vec::new();
            let mut right_rows = Vec::new();
            for r in rows {
                if bound.route(r as usize).unwrap_or(*default_left) {
                    left_rows.push(r);
                } else {
                    right_rows.push(r);
                }
            }
            partition_rows(left, view, left_rows, leaf_base, on_leaf);
            partition_rows(
                right,
                view,
                right_rows,
                leaf_base + left.n_leaves(),
                on_leaf,
            );
        }
    }
}

fn build_node(
    view: &TableView,
    features: &[String],
    labels: &[usize],
    rows: &[u32],
    nclasses: usize,
    depth: usize,
    config: &CartConfig,
) -> Node {
    let counts = class_counts(labels, rows, nclasses);
    let majority = counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(&a.0)))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let majority_fraction = if rows.is_empty() {
        1.0
    } else {
        counts[majority] as f64 / rows.len() as f64
    };
    let pure =
        counts.iter().filter(|&&c| c > 0).count() <= 1 || majority_fraction >= config.purity_stop;

    if pure || depth >= config.max_depth || rows.len() < config.min_samples_split {
        return Node::Leaf {
            class: majority,
            counts,
        };
    }

    // Best split across features (ties toward the earlier feature).
    let mut best: Option<BestSplit> = None;
    for name in features {
        let col = view.col_by_name(name).expect("validated");
        let candidate = match col.data_type() {
            DataType::Float64 | DataType::Int64 | DataType::Bool => {
                best_numeric_split(&col, name, labels, rows, nclasses, config)
            }
            DataType::Categorical => {
                best_categorical_split(&col, name, labels, rows, nclasses, config)
            }
        };
        if let Some(c) = candidate {
            if best
                .as_ref()
                .is_none_or(|b| c.decrease > b.decrease + 1e-15)
            {
                best = Some(c);
            }
        }
    }

    let Some(split) = best else {
        return Node::Leaf {
            class: majority,
            counts,
        };
    };
    if split.decrease < config.min_impurity_decrease {
        return Node::Leaf {
            class: majority,
            counts,
        };
    }

    // Partition rows; missing test values follow the default direction.
    let bound = BoundRule::bind(&split.rule, view);
    let mut left_rows = Vec::new();
    let mut right_rows = Vec::new();
    for &r in rows {
        let goes_left = bound.route(r as usize).unwrap_or(split.default_left);
        if goes_left {
            left_rows.push(r);
        } else {
            right_rows.push(r);
        }
    }
    if left_rows.is_empty() || right_rows.is_empty() {
        // All rows (incl. missing) landed on one side: not a useful split.
        return Node::Leaf {
            class: majority,
            counts,
        };
    }

    let left = build_node(
        view,
        features,
        labels,
        &left_rows,
        nclasses,
        depth + 1,
        config,
    );
    let right = build_node(
        view,
        features,
        labels,
        &right_rows,
        nclasses,
        depth + 1,
        config,
    );
    Node::Internal {
        rule: split.rule,
        default_left: split.default_left,
        counts,
        left: Box::new(left),
        right: Box::new(right),
    }
}

impl DecisionTree {
    /// Fits a tree on the given feature columns and class labels of a view
    /// (`labels[i]` is view row *i*'s class; Blaeu passes cluster IDs).
    ///
    /// # Errors
    /// Returns an error for unknown features, a label/row-count mismatch,
    /// or an empty view.
    pub fn fit(
        view: &TableView,
        features: &[&str],
        labels: &[usize],
        config: &CartConfig,
    ) -> Result<Self> {
        if labels.len() != view.nrows() {
            return Err(StoreError::LengthMismatch {
                expected: view.nrows(),
                found: labels.len(),
                column: "<labels>".to_owned(),
            });
        }
        if view.nrows() == 0 {
            return Err(StoreError::InvalidArgument(
                "cannot fit a tree on an empty view".to_owned(),
            ));
        }
        for &f in features {
            view.col_by_name(f)?;
        }
        let nclasses = labels.iter().copied().max().unwrap_or(0) + 1;
        let rows: Vec<u32> = (0..view.nrows() as u32).collect();
        let features: Vec<String> = features.iter().map(|&s| s.to_owned()).collect();
        // Fold the fractional leaf floor into the absolute one.
        let mut config = config.clone();
        config.min_samples_leaf = config
            .min_samples_leaf
            .max((config.min_leaf_fraction.clamp(0.0, 1.0) * view.nrows() as f64).ceil() as usize);
        let root = build_node(view, &features, labels, &rows, nclasses, 0, &config);
        Ok(DecisionTree {
            root,
            nclasses,
            features,
        })
    }

    /// The root node.
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Rebuilds this tree around a (typically pruned) root, keeping the
    /// class count and feature list.
    pub(crate) fn with_root(&self, root: Node) -> DecisionTree {
        DecisionTree {
            root,
            nclasses: self.nclasses,
            features: self.features.clone(),
        }
    }

    /// Feature columns used at fit time.
    pub fn features(&self) -> &[String] {
        &self.features
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.root.n_leaves()
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Predicts every row of a view.
    ///
    /// # Errors
    /// Returns an error when a feature column is missing from the view.
    pub fn predict(&self, view: &TableView) -> Result<Vec<usize>> {
        for f in &self.features {
            view.col_by_name(f)?;
        }
        let mut out = vec![0usize; view.nrows()];
        let rows: Vec<u32> = (0..view.nrows() as u32).collect();
        partition_rows(&self.root, view, rows, 0, &mut |leaf, _, leaf_rows| {
            let Node::Leaf { class, .. } = leaf else {
                unreachable!("partition_rows only reports leaves");
            };
            for &r in leaf_rows {
                out[r as usize] = *class;
            }
        });
        Ok(out)
    }

    /// Routes every view row to a leaf, returning per-row leaf indices in
    /// left-to-right leaf order (the region assignment for data maps).
    ///
    /// # Errors
    /// Returns an error when a feature column is missing from the view.
    pub fn leaf_assignments(&self, view: &TableView) -> Result<Vec<usize>> {
        for f in &self.features {
            view.col_by_name(f)?;
        }
        let mut out = vec![0usize; view.nrows()];
        let rows: Vec<u32> = (0..view.nrows() as u32).collect();
        partition_rows(
            &self.root,
            view,
            rows,
            0,
            &mut |_, leaf_index, leaf_rows| {
                for &r in leaf_rows {
                    out[r as usize] = leaf_index;
                }
            },
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaeu_store::{Column, TableBuilder};

    /// Two numeric clusters split at x = 5.
    fn simple_numeric() -> (TableView, Vec<usize>) {
        let xs: Vec<f64> = (0..40)
            .map(|i| {
                if i < 20 {
                    i as f64 / 4.0
                } else {
                    6.0 + (i - 20) as f64 / 4.0
                }
            })
            .collect();
        let labels: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let t = TableBuilder::new("t")
            .column("x", Column::dense_f64(xs))
            .unwrap()
            .build()
            .unwrap();
        (t.into(), labels)
    }

    #[test]
    fn learns_threshold_split() {
        let (t, labels) = simple_numeric();
        let tree = DecisionTree::fit(&t, &["x"], &labels, &CartConfig::default()).unwrap();
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.n_leaves(), 2);
        let Node::Internal { rule, .. } = tree.root() else {
            panic!("expected a split");
        };
        let SplitRule::Numeric { threshold, .. } = rule else {
            panic!("expected numeric rule");
        };
        assert!(
            (*threshold > 4.7) && (*threshold < 6.1),
            "threshold {threshold} should sit in the gap"
        );
        let pred = tree.predict(&t).unwrap();
        assert_eq!(pred, labels, "tree should perfectly separate the blobs");
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let t: TableView = TableBuilder::new("t")
            .column("x", Column::dense_f64(vec![1.0, 2.0, 3.0]))
            .unwrap()
            .build()
            .unwrap()
            .into();
        let tree = DecisionTree::fit(&t, &["x"], &[1, 1, 1], &CartConfig::default()).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict(&t).unwrap(), [1, 1, 1]);
        assert_eq!(tree.nclasses, 2);
    }

    #[test]
    fn max_depth_respected() {
        // Three clusters need two split levels (three leaves); cap at 1 and
        // verify the tree stays shallow, then confirm depth 2 fits exactly.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut labels = Vec::new();
        for i in 0..12 {
            xs.push(i as f64 * 0.1);
            ys.push(i as f64 * 0.1);
            labels.push(0);
        }
        for i in 0..12 {
            xs.push(i as f64 * 0.1);
            ys.push(10.0 + i as f64 * 0.1);
            labels.push(1);
        }
        for i in 0..12 {
            xs.push(10.0 + i as f64 * 0.1);
            ys.push(5.0 + i as f64 * 0.1);
            labels.push(2);
        }
        let t: TableView = TableBuilder::new("t")
            .column("x", Column::dense_f64(xs))
            .unwrap()
            .column("y", Column::dense_f64(ys))
            .unwrap()
            .build()
            .unwrap()
            .into();
        let config = CartConfig {
            max_depth: 1,
            min_samples_split: 2,
            min_samples_leaf: 1,
            ..CartConfig::default()
        };
        let tree = DecisionTree::fit(&t, &["x", "y"], &labels, &config).unwrap();
        assert!(tree.depth() <= 1);
        assert!(tree.n_leaves() <= 2);
        let deeper = DecisionTree::fit(
            &t,
            &["x", "y"],
            &labels,
            &CartConfig {
                max_depth: 3,
                min_samples_split: 2,
                min_samples_leaf: 1,
                ..CartConfig::default()
            },
        )
        .unwrap();
        assert!(deeper.depth() >= 2, "three clusters need two levels");
        let pred = deeper.predict(&t).unwrap();
        assert_eq!(pred, labels);
    }

    #[test]
    fn categorical_split() {
        let cats = ["nl", "nl", "nl", "ch", "ch", "ch", "us", "us", "us", "us"];
        let labels = vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 1];
        let t: TableView = TableBuilder::new("t")
            .column("country", Column::from_strs(cats.iter().map(|&s| Some(s))))
            .unwrap()
            .build()
            .unwrap()
            .into();
        let config = CartConfig {
            min_samples_split: 2,
            min_samples_leaf: 1,
            ..CartConfig::default()
        };
        let tree = DecisionTree::fit(&t, &["country"], &labels, &config).unwrap();
        let pred = tree.predict(&t).unwrap();
        assert_eq!(pred, labels);
        let Node::Internal { rule, .. } = tree.root() else {
            panic!("expected split");
        };
        let SplitRule::Categorical {
            left_categories, ..
        } = rule
        else {
            panic!("expected categorical rule");
        };
        // One side must be exactly {us}.
        let sorted: Vec<&str> = left_categories.iter().map(String::as_str).collect();
        assert!(sorted == ["us"] || sorted.len() == 2, "got {sorted:?}");
    }

    #[test]
    fn missing_values_follow_default_direction() {
        let xs: Vec<Option<f64>> = (0..30)
            .map(|i| if i % 10 == 9 { None } else { Some(i as f64) })
            .collect();
        let labels: Vec<usize> = (0..30).map(|i| usize::from(i >= 15)).collect();
        let t: TableView = TableBuilder::new("t")
            .column("x", Column::from_f64s(xs))
            .unwrap()
            .build()
            .unwrap()
            .into();
        let config = CartConfig {
            min_samples_split: 4,
            min_samples_leaf: 2,
            ..CartConfig::default()
        };
        let tree = DecisionTree::fit(&t, &["x"], &labels, &config).unwrap();
        // Prediction never fails on missing data.
        let acc = tree
            .predict(&t)
            .unwrap()
            .iter()
            .zip(&labels)
            .filter(|(p, a)| p == a)
            .count();
        assert!(acc >= 24, "tree should fit most rows, got {acc}/30");
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let (t, labels) = simple_numeric();
        let config = CartConfig {
            min_samples_leaf: 25, // can't split 40 rows into 25+25
            ..CartConfig::default()
        };
        let tree = DecisionTree::fit(&t, &["x"], &labels, &config).unwrap();
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn errors_on_bad_inputs() {
        let (t, labels) = simple_numeric();
        assert!(DecisionTree::fit(&t, &["ghost"], &labels, &CartConfig::default()).is_err());
        assert!(DecisionTree::fit(&t, &["x"], &labels[..5], &CartConfig::default()).is_err());
        let empty: TableView = TableBuilder::new("e").build().unwrap().into();
        assert!(DecisionTree::fit(&empty, &[], &[], &CartConfig::default()).is_err());
    }

    #[test]
    fn predict_on_missing_feature_errors() {
        let (t, labels) = simple_numeric();
        let tree = DecisionTree::fit(&t, &["x"], &labels, &CartConfig::default()).unwrap();
        let other: TableView = TableBuilder::new("o")
            .column("y", Column::dense_f64(vec![1.0]))
            .unwrap()
            .build()
            .unwrap()
            .into();
        assert!(tree.predict(&other).is_err());
    }

    #[test]
    fn leaf_assignments_partition_rows() {
        let (t, labels) = simple_numeric();
        let tree = DecisionTree::fit(&t, &["x"], &labels, &CartConfig::default()).unwrap();
        let assign = tree.leaf_assignments(&t).unwrap();
        assert_eq!(assign.len(), t.nrows());
        let distinct: std::collections::HashSet<usize> = assign.iter().copied().collect();
        assert_eq!(distinct.len(), tree.n_leaves());
        assert!(assign.iter().all(|&a| a < tree.n_leaves()));
    }

    #[test]
    fn three_class_problem() {
        let xs: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let labels: Vec<usize> = (0..60).map(|i| i / 20).collect();
        let t: TableView = TableBuilder::new("t")
            .column("x", Column::dense_f64(xs))
            .unwrap()
            .build()
            .unwrap()
            .into();
        let tree = DecisionTree::fit(&t, &["x"], &labels, &CartConfig::default()).unwrap();
        assert_eq!(tree.nclasses, 3);
        assert_eq!(tree.n_leaves(), 3);
        assert_eq!(tree.predict(&t).unwrap(), labels);
    }

    #[test]
    fn deterministic() {
        let (t, labels) = simple_numeric();
        let a = DecisionTree::fit(&t, &["x"], &labels, &CartConfig::default()).unwrap();
        let b = DecisionTree::fit(&t, &["x"], &labels, &CartConfig::default()).unwrap();
        assert_eq!(a, b);
    }
}
