//! Agglomerative hierarchical clustering (baseline).
//!
//! The paper notes it "had to choose between a dozen clustering algorithms
//! from the literature" before settling on PAM. Agglomerative clustering
//! is the classic alternative for theme detection (it consumes a distance
//! matrix directly); this implementation supports the three standard
//! linkages via Lance–Williams updates and cuts the dendrogram at any k.

use crate::matrix::DistanceMatrix;

/// Linkage criterion for merging clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum pairwise distance (chains easily).
    Single,
    /// Maximum pairwise distance (compact clusters).
    Complete,
    /// Unweighted average pairwise distance (UPGMA).
    Average,
}

/// One merge step of the dendrogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Merge {
    /// First merged cluster id (original points are `0..n`; merges create
    /// ids `n, n+1, …`).
    pub a: usize,
    /// Second merged cluster id.
    pub b: usize,
    /// Linkage distance at which the merge happened.
    pub distance: f64,
    /// Points in the merged cluster.
    pub size: usize,
}

/// A fitted agglomerative clustering (full dendrogram).
#[derive(Debug, Clone)]
pub struct Dendrogram {
    n: usize,
    /// The merge history, in order (length `n − 1`).
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Number of points clustered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when fitted on zero points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Cuts the dendrogram into `k` clusters, returning dense labels
    /// `0..k` in first-appearance order.
    ///
    /// `k` is clamped to `[1, n]`.
    pub fn cut(&self, k: usize) -> Vec<usize> {
        let n = self.n;
        if n == 0 {
            return Vec::new();
        }
        let k = k.clamp(1, n);
        // Union-find over the first n - k merges.
        let mut parent: Vec<usize> = (0..2 * n - 1).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (i, m) in self.merges.iter().take(n - k).enumerate() {
            let node = n + i;
            let ra = find(&mut parent, m.a);
            let rb = find(&mut parent, m.b);
            parent[ra] = node;
            parent[rb] = node;
        }
        let mut labels = vec![usize::MAX; n];
        let mut next = 0usize;
        let mut label_of_root: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        for (i, slot) in labels.iter_mut().enumerate() {
            let root = find(&mut parent, i);
            let l = *label_of_root.entry(root).or_insert_with(|| {
                let l = next;
                next += 1;
                l
            });
            *slot = l;
        }
        labels
    }
}

/// Fits agglomerative clustering on a distance matrix.
///
/// O(n³) naive implementation — fine for the theme-detection scale
/// (hundreds of columns) and for baseline comparisons.
///
/// # Panics
/// Panics on an empty matrix.
pub fn agglomerative(matrix: &DistanceMatrix, linkage: Linkage) -> Dendrogram {
    let n = matrix.len();
    assert!(n > 0, "cannot cluster an empty matrix");

    // Active cluster list: (id, members).
    let mut active: Vec<(usize, Vec<usize>)> = (0..n).map(|i| (i, vec![i])).collect();
    // Working inter-cluster distances, keyed by position in `active`.
    let mut dist: Vec<Vec<f64>> = vec![vec![0.0; n]; n];
    for (i, row) in dist.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = matrix.get(i, j);
        }
    }

    let mut merges = Vec::with_capacity(n.saturating_sub(1));
    let mut next_id = n;
    while active.len() > 1 {
        // Find the closest active pair.
        let (mut bi, mut bj, mut bd) = (0usize, 1usize, f64::INFINITY);
        for (i, row) in dist.iter().enumerate().take(active.len()) {
            for (j, &d) in row.iter().enumerate().take(active.len()).skip(i + 1) {
                if d < bd {
                    bd = d;
                    bi = i;
                    bj = j;
                }
            }
        }
        let (id_a, members_a) = active[bi].clone();
        let (id_b, members_b) = active[bj].clone();
        let (na, nb) = (members_a.len() as f64, members_b.len() as f64);

        // Lance–Williams update of distances to the merged cluster.
        let mut new_row = Vec::with_capacity(active.len());
        for x in 0..active.len() {
            if x == bi || x == bj {
                new_row.push(0.0);
                continue;
            }
            let dax = dist[bi.min(x)][bi.max(x)];
            let dbx = dist[bj.min(x)][bj.max(x)];
            let d = match linkage {
                Linkage::Single => dax.min(dbx),
                Linkage::Complete => dax.max(dbx),
                Linkage::Average => (na * dax + nb * dbx) / (na + nb),
            };
            new_row.push(d);
        }

        // Remove bj then bi (higher index first), then append the merge.
        let keep: Vec<usize> = (0..active.len()).filter(|&x| x != bi && x != bj).collect();
        let mut new_active = Vec::with_capacity(keep.len() + 1);
        let mut new_dist = vec![vec![0.0f64; keep.len() + 1]; keep.len() + 1];
        for (xi, &x) in keep.iter().enumerate() {
            new_active.push(active[x].clone());
            for (yi, &y) in keep.iter().enumerate().skip(xi + 1) {
                let d = dist[x.min(y)][x.max(y)];
                new_dist[xi][yi] = d;
                new_dist[yi][xi] = d;
            }
        }
        let merged_members: Vec<usize> =
            members_a.iter().chain(members_b.iter()).copied().collect();
        let merged_pos = new_active.len();
        new_active.push((next_id, merged_members.clone()));
        for (xi, &x) in keep.iter().enumerate() {
            new_dist[xi][merged_pos] = new_row[x];
            new_dist[merged_pos][xi] = new_row[x];
        }

        merges.push(Merge {
            a: id_a,
            b: id_b,
            distance: bd,
            size: merged_members.len(),
        });
        next_id += 1;
        active = new_active;
        dist = new_dist;
    }

    Dendrogram { n, merges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{Metric, Points};

    fn blob_matrix() -> DistanceMatrix {
        let mut rows = Vec::new();
        for c in 0..3 {
            for i in 0..8 {
                rows.push(vec![c as f64 * 40.0 + (i as f64) * 0.3]);
            }
        }
        DistanceMatrix::from_points(&Points::new(rows, Metric::Euclidean))
    }

    #[test]
    fn recovers_blobs_at_k3() {
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let dend = agglomerative(&blob_matrix(), linkage);
            let labels = dend.cut(3);
            assert_eq!(labels.len(), 24);
            for c in 0..3 {
                let first = labels[c * 8];
                for i in 0..8 {
                    assert_eq!(labels[c * 8 + i], first, "{linkage:?} split blob {c}");
                }
            }
            let distinct: std::collections::HashSet<usize> = labels.iter().copied().collect();
            assert_eq!(distinct.len(), 3, "{linkage:?}");
        }
    }

    #[test]
    fn merge_history_complete() {
        let dend = agglomerative(&blob_matrix(), Linkage::Average);
        assert_eq!(dend.merges.len(), 23);
        assert_eq!(dend.len(), 24);
        // Final merge holds all points.
        assert_eq!(dend.merges.last().unwrap().size, 24);
        // Within-blob merges happen before cross-blob merges.
        let first_cross = dend
            .merges
            .iter()
            .position(|m| m.distance > 10.0)
            .expect("cross-blob merges exist");
        assert!(first_cross >= 21, "21 within-blob merges come first");
    }

    #[test]
    fn cut_extremes() {
        let dend = agglomerative(&blob_matrix(), Linkage::Complete);
        let all_one = dend.cut(1);
        assert!(all_one.iter().all(|&l| l == 0));
        let singletons = dend.cut(24);
        let distinct: std::collections::HashSet<usize> = singletons.iter().copied().collect();
        assert_eq!(distinct.len(), 24);
        // Clamped.
        assert_eq!(dend.cut(100), singletons);
        let k0 = dend.cut(0);
        assert!(k0.iter().all(|&l| l == 0), "k=0 clamps to 1");
    }

    #[test]
    fn monotone_merge_distances_for_complete_linkage() {
        // Complete/average linkage on metric data produce non-decreasing
        // merge heights (no inversions).
        let dend = agglomerative(&blob_matrix(), Linkage::Complete);
        let heights: Vec<f64> = dend.merges.iter().map(|m| m.distance).collect();
        assert!(
            heights.windows(2).all(|w| w[0] <= w[1] + 1e-9),
            "{heights:?}"
        );
    }

    #[test]
    fn single_point() {
        let m = DistanceMatrix::from_fn(1, |_, _| 0.0);
        let dend = agglomerative(&m, Linkage::Single);
        assert_eq!(dend.merges.len(), 0);
        assert_eq!(dend.cut(1), vec![0]);
    }

    #[test]
    fn chaining_differs_between_single_and_complete() {
        // A chain of equidistant points plus one distant pair: single
        // linkage chains the whole line together, complete linkage splits.
        let mut rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        rows.push(vec![30.0]);
        rows.push(vec![31.0]);
        let m = DistanceMatrix::from_points(&Points::new(rows, Metric::Euclidean));
        let single = agglomerative(&m, Linkage::Single).cut(2);
        // Single: chain = one cluster, far pair = the other.
        assert_eq!(
            single[..10]
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            1
        );
        assert_ne!(single[0], single[10]);
    }
}
