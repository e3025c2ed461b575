//! The data map model (Section 2 of the paper).
//!
//! A [`DataMap`] is "an interactive visualization of the clusters in the
//! query results": a hierarchy of [`Region`]s produced by the decision
//! tree, each described by interpretable predicates, sized by tuple count
//! (leaf area in the paper's figures), and usable as the target of the
//! zoom / highlight actions.

use std::fmt;

use blaeu_store::Predicate;
use blaeu_tree::DecisionTree;

use crate::command::DigestMemo;
use crate::error::{BlaeuError, Result};

/// One region of a data map.
#[derive(Debug, Clone)]
pub struct Region {
    /// Region id (root = 0, then depth-first pre-order).
    pub id: usize,
    /// Parent region id (`None` for the root).
    pub parent: Option<usize>,
    /// Child region ids (empty for leaves).
    pub children: Vec<usize>,
    /// Depth in the map (root = 0).
    pub depth: usize,
    /// Split condition on the edge from the parent (empty for the root),
    /// e.g. `"avg income < 22"`.
    pub edge_label: String,
    /// Merged predicate for the full path from the root of the map.
    pub predicate: Predicate,
    /// Human-readable clauses of the full path (one per column).
    pub description: Vec<String>,
    /// Rows of the active view inside this region.
    pub count: usize,
    /// `count` relative to the view size.
    pub fraction: f64,
    /// Majority cluster id at this region.
    pub cluster: usize,
    /// Leaf index (left-to-right) when this region is a leaf.
    pub leaf: Option<usize>,
}

impl Region {
    /// True for terminal regions.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// A complete data map over an active selection.
///
/// A map is built once and then shared as an `Arc`; it is never
/// mutated after its first [`Response::digest`](crate::Response::digest),
/// which memoises the digest of the map's `Debug` text inside the map.
/// Nothing takes `&mut DataMap` and nothing reaches into a shared one
/// (`Arc::get_mut`, `Arc::make_mut`); keep it so. A clone starts with
/// an empty memo.
#[derive(Clone)]
pub struct DataMap {
    /// Columns the map was computed on (the active theme).
    pub columns: Vec<String>,
    /// Number of clusters the partition used.
    pub k: usize,
    /// Average silhouette of the partition (on the sample).
    pub silhouette: f64,
    /// Rows sampled to compute the clustering.
    pub sample_size: usize,
    /// Rows of the view the map covers.
    pub view_rows: usize,
    /// Rows actually routed through the tree to produce region counts and
    /// memberships. Equal to `view_rows` for exact maps; smaller for
    /// preview maps (intermediate progressive rungs), whose counts are
    /// scaled estimates from this many assigned rows.
    pub assigned_rows: usize,
    /// Fidelity of the tree to the raw clustering on the sample
    /// (fraction of sample rows whose tree class matches their cluster).
    pub tree_fidelity: f64,
    /// View-row indices of the cluster medoids (representative tuples).
    pub medoid_rows: Vec<u32>,
    /// The regions, `regions[0]` being the root.
    regions: Vec<Region>,
    /// Per-leaf view-row memberships, indexed by leaf index, each
    /// ascending (exact maps route the view in row order, preview maps a
    /// sorted prefix sample).
    leaf_rows: Vec<Vec<u32>>,
    /// The underlying decision tree.
    tree: DecisionTree,
    /// The digest of this map's `Debug` text, filled by the first
    /// digest of a response that carries it.
    pub(crate) digest_memo: DigestMemo,
}

// By hand only to leave the memo out: the text is the derived one, whose
// digest journals persist.
impl fmt::Debug for DataMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataMap")
            .field("columns", &self.columns)
            .field("k", &self.k)
            .field("silhouette", &self.silhouette)
            .field("sample_size", &self.sample_size)
            .field("view_rows", &self.view_rows)
            .field("assigned_rows", &self.assigned_rows)
            .field("tree_fidelity", &self.tree_fidelity)
            .field("medoid_rows", &self.medoid_rows)
            .field("regions", &self.regions)
            .field("leaf_rows", &self.leaf_rows)
            .field("tree", &self.tree)
            .finish()
    }
}

impl DataMap {
    /// Assembles a map (used by the mapper; not part of the public
    /// exploration API).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        columns: Vec<String>,
        k: usize,
        silhouette: f64,
        sample_size: usize,
        view_rows: usize,
        assigned_rows: usize,
        tree_fidelity: f64,
        medoid_rows: Vec<u32>,
        regions: Vec<Region>,
        leaf_rows: Vec<Vec<u32>>,
        tree: DecisionTree,
    ) -> Self {
        debug_assert!(!regions.is_empty(), "a map always has a root region");
        debug_assert!(
            leaf_rows.iter().all(|rows| rows.is_sorted()),
            "leaf memberships are ascending"
        );
        DataMap {
            columns,
            k,
            silhouette,
            sample_size,
            view_rows,
            assigned_rows,
            tree_fidelity,
            medoid_rows,
            regions,
            leaf_rows,
            tree,
            digest_memo: DigestMemo::default(),
        }
    }

    /// The root region.
    pub fn root(&self) -> &Region {
        &self.regions[0]
    }

    /// All regions in id order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Region by id.
    ///
    /// # Errors
    /// Returns [`BlaeuError::UnknownRegion`] for bad ids.
    pub fn region(&self, id: usize) -> Result<&Region> {
        self.regions.get(id).ok_or(BlaeuError::UnknownRegion(id))
    }

    /// Leaf regions, left-to-right.
    pub fn leaves(&self) -> Vec<&Region> {
        let mut leaves: Vec<&Region> = self.regions.iter().filter(|r| r.is_leaf()).collect();
        leaves.sort_by_key(|r| r.leaf);
        leaves
    }

    /// Number of regions (internal + leaves).
    pub fn n_regions(&self) -> usize {
        self.regions.len()
    }

    /// The decision tree behind the map.
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// Ids of regions that differ from `prev` (every id when `prev` is
    /// `None`). Region ids are pre-order indices, so the comparison is
    /// positional: an id is "changed" when its region was added, removed,
    /// or renders a different `Debug` form — the same bit-exact float
    /// discipline [`Response::digest`](crate::Response::digest) uses, so
    /// an unchanged region here is unchanged in the digest sense too.
    pub fn changed_region_ids(&self, prev: Option<&DataMap>) -> Vec<usize> {
        let Some(prev) = prev else {
            return (0..self.regions.len()).collect();
        };
        let longest = self.regions.len().max(prev.regions.len());
        (0..longest)
            .filter(|&id| match (self.regions.get(id), prev.regions.get(id)) {
                (Some(a), Some(b)) => format!("{a:?}") != format!("{b:?}"),
                _ => true,
            })
            .collect()
    }

    /// True when region counts and memberships were estimated from a
    /// routed subset of the view rather than the full view.
    pub fn is_preview(&self) -> bool {
        self.assigned_rows < self.view_rows
    }

    /// Exact view-row indices inside a region, regardless of whether this
    /// map is a preview. Exact maps answer from stored memberships; for
    /// preview maps the full view is re-routed through the tree, so that
    /// actions which *select data* (zoom) never silently operate on the
    /// preview subset.
    ///
    /// # Errors
    /// Returns [`BlaeuError::UnknownRegion`] for bad ids, or a store error
    /// when `view` lacks the map's feature columns.
    pub fn exact_rows_of(&self, view: &blaeu_store::TableView, id: usize) -> Result<Vec<u32>> {
        if !self.is_preview() {
            return self.rows_of(id);
        }
        let mut wanted = vec![false; self.leaf_rows.len()];
        for leaf in self.leaves_under(self.region(id)?) {
            wanted[leaf] = true;
        }
        let assignments = self.tree.leaf_assignments(view)?;
        Ok(assignments
            .iter()
            .enumerate()
            .filter(|&(_, &leaf)| wanted[leaf])
            .map(|(row, _)| row as u32)
            .collect())
    }

    /// View-row indices inside a region (leaf rows are stored; internal
    /// regions concatenate their descendant leaves, ascending). For
    /// preview maps these are the routed preview rows only — use
    /// [`DataMap::exact_rows_of`] when the result selects data.
    ///
    /// # Errors
    /// Returns [`BlaeuError::UnknownRegion`] for bad ids.
    pub fn rows_of(&self, id: usize) -> Result<Vec<u32>> {
        let region = self.region(id)?;
        if let Some(leaf) = region.leaf {
            return Ok(self.leaf_rows[leaf].clone());
        }
        let mut out = Vec::with_capacity(region.count);
        for leaf in self.leaves_under(region) {
            out.extend_from_slice(&self.leaf_rows[leaf]);
        }
        out.sort_unstable();
        Ok(out)
    }

    /// The stored view-row indices of a leaf region, borrowed — what
    /// [`DataMap::rows_of`] clones for a leaf.
    ///
    /// # Errors
    /// Returns [`BlaeuError::UnknownRegion`] for bad ids and
    /// [`BlaeuError::Invalid`] for internal regions.
    pub fn leaf_rows_of(&self, id: usize) -> Result<&[u32]> {
        let leaf = self
            .region(id)?
            .leaf
            .ok_or_else(|| BlaeuError::Invalid(format!("region {id} is not a leaf")))?;
        Ok(&self.leaf_rows[leaf])
    }

    /// The first `n` rows of [`DataMap::rows_of`]`(id)`, without
    /// collecting the region: leaves hold their rows ascending, so these
    /// are the `n` smallest of each descendant leaf's first `n`.
    ///
    /// # Errors
    /// Returns [`BlaeuError::UnknownRegion`] for bad ids.
    pub fn first_rows_of(&self, id: usize, n: usize) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        for leaf in self.leaves_under(self.region(id)?) {
            let rows = &self.leaf_rows[leaf];
            out.extend_from_slice(&rows[..n.min(rows.len())]);
        }
        out.sort_unstable();
        out.truncate(n);
        Ok(out)
    }

    /// Leaf indices of the leaves under `region` (itself, for a leaf).
    fn leaves_under(&self, region: &Region) -> Vec<usize> {
        let mut leaves = Vec::new();
        let mut stack = vec![region];
        while let Some(r) = stack.pop() {
            if let Some(leaf) = r.leaf {
                leaves.push(leaf);
            } else {
                stack.extend(r.children.iter().map(|&c| &self.regions[c]));
            }
        }
        leaves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{build_map, MapperConfig};
    use blaeu_store::{Column, TableBuilder};

    fn toy_map() -> DataMap {
        // Two clear clusters on one column.
        let vals: Vec<f64> = (0..60)
            .map(|i| {
                if i < 30 {
                    i as f64 * 0.01
                } else {
                    100.0 + i as f64 * 0.01
                }
            })
            .collect();
        let t = TableBuilder::new("t")
            .column("x", Column::dense_f64(vals))
            .unwrap()
            .build()
            .unwrap();
        build_map(&t.into(), &["x"], &MapperConfig::default()).unwrap()
    }

    #[test]
    fn root_covers_everything() {
        let map = toy_map();
        let root = map.root();
        assert_eq!(root.id, 0);
        assert_eq!(root.count, 60);
        assert!((root.fraction - 1.0).abs() < 1e-12);
        assert!(root.parent.is_none());
        assert_eq!(root.edge_label, "");
    }

    #[test]
    fn leaves_partition_view() {
        let map = toy_map();
        let leaves = map.leaves();
        assert_eq!(leaves.len(), 2);
        let total: usize = leaves.iter().map(|r| r.count).sum();
        assert_eq!(total, 60);
        // Row sets are disjoint and complete.
        let mut all_rows: Vec<u32> = Vec::new();
        for leaf in &leaves {
            all_rows.extend(map.rows_of(leaf.id).unwrap());
        }
        all_rows.sort_unstable();
        assert_eq!(all_rows, (0..60).collect::<Vec<u32>>());
    }

    #[test]
    fn internal_rows_concatenate_leaves() {
        let map = toy_map();
        let root_rows = map.rows_of(0).unwrap();
        assert_eq!(root_rows.len(), 60);
        assert!(root_rows.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn unknown_region_errors() {
        let map = toy_map();
        assert!(matches!(
            map.region(9999),
            Err(BlaeuError::UnknownRegion(9999))
        ));
        assert!(map.rows_of(9999).is_err());
    }

    #[test]
    fn parent_child_links_consistent() {
        let map = toy_map();
        for region in map.regions() {
            for &child in &region.children {
                assert_eq!(map.region(child).unwrap().parent, Some(region.id));
                assert_eq!(map.region(child).unwrap().depth, region.depth + 1);
            }
            if let Some(parent) = region.parent {
                assert!(map.region(parent).unwrap().children.contains(&region.id));
            }
        }
    }

    #[test]
    fn changed_region_ids_diff_positionally() {
        let map = toy_map();
        // No base: every region counts as changed.
        assert_eq!(
            map.changed_region_ids(None),
            (0..map.n_regions()).collect::<Vec<usize>>()
        );
        // Identical maps: nothing changed.
        assert!(map.changed_region_ids(Some(&map)).is_empty());
        // A coarser map (fewer regions) differs at the removed ids.
        let smaller = build_map(
            &TableBuilder::new("one")
                .column("x", Column::dense_f64((0..60).map(f64::from).collect()))
                .unwrap()
                .build()
                .unwrap()
                .into(),
            &["x"],
            &MapperConfig {
                k: crate::mapper::KChoice::Fixed(1),
                ..MapperConfig::default()
            },
        )
        .unwrap();
        let changed = map.changed_region_ids(Some(&smaller));
        assert_eq!(changed.len(), map.n_regions().max(smaller.n_regions()));
    }

    #[test]
    fn edge_labels_describe_split() {
        let map = toy_map();
        let root = map.root();
        assert_eq!(root.children.len(), 2);
        let left = map.region(root.children[0]).unwrap();
        let right = map.region(root.children[1]).unwrap();
        assert!(left.edge_label.contains('<'), "{}", left.edge_label);
        assert!(right.edge_label.contains(">="), "{}", right.edge_label);
    }
}
