//! Condensed symmetric distance matrices.

use crate::distance::Points;

/// A symmetric `n × n` distance matrix stored in condensed form
/// (`n(n−1)/2` entries, zero diagonal implied).
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Builds a matrix by evaluating `f(i, j)` for every pair `i < j`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                data.push(f(i, j));
            }
        }
        DistanceMatrix { n, data }
    }

    /// Maximum rows per steal-queue band in
    /// [`DistanceMatrix::from_points`]. The condensed row of `i` holds
    /// `n − 1 − i` cells, so equal-height bands carry wildly unequal
    /// work; fine bands let the executor's claim queue rebalance that
    /// skew instead of pinning the long early rows to whichever worker
    /// drew them. For small `n` the height shrinks further (to the
    /// adaptive grain for the thread budget) so even a 300-point build
    /// has enough bands to balance — the band layout may depend on the
    /// budget because every cell's value depends only on its position,
    /// never on which band wrote it.
    const BAND_ROWS: usize = 64;

    fn band_rows(n: usize) -> usize {
        Self::BAND_ROWS.min(blaeu_exec::adaptive_grain(n, blaeu_exec::thread_budget()))
    }

    /// Column-tile width of the blocked fill: a tile of `J_TILE` point
    /// rows stays resident in cache while every row of a band sweeps it.
    const J_TILE: usize = 256;

    /// Builds a matrix from a point set, parallelizing across row bands
    /// when the set is large.
    ///
    /// The condensed buffer is split into fixed-height row bands
    /// (`BAND_ROWS`) that executor workers claim adaptively; each
    /// worker fills its band in place through the point set's
    /// [`blocked kernel`](Points::block_kernel), sweeping column tiles of
    /// `J_TILE` rows so the j-side data is reused from cache
    /// across the whole band. Every cell's value depends only on its
    /// position (the kernel is bitwise identical to [`Points::dist`]), so
    /// the matrix is identical for any thread count and any tile layout
    /// (and the build degrades to sequential inside an outer parallel
    /// region, e.g. CLARA replicates).
    pub fn from_points(points: &Points) -> Self {
        let n = points.len();
        let kernel = points.block_kernel();
        if n < 256 {
            return DistanceMatrix::from_fn(n, |i, j| kernel.dist(i, j));
        }
        let mut data = vec![0.0f64; n * (n - 1) / 2];
        // Split the condensed buffer where each row band starts.
        let row_start = |i: usize| i * n - i * (i + 1) / 2; // offset of (i, i+1)
        let bands = blaeu_exec::ShardSpec::with_shard_size(n, Self::band_rows(n));
        let boundaries: Vec<usize> = (1..bands.shard_count())
            .map(|s| row_start(bands.range(s).start))
            .collect();
        blaeu_exec::par_chunks_mut(&mut data, &boundaries, |band, slice| {
            let rows = bands.range(band);
            let base = row_start(rows.start);
            let mut tile = rows.start + 1;
            while tile < n {
                let tile_end = (tile + Self::J_TILE).min(n);
                for i in rows.clone() {
                    let j0 = tile.max(i + 1);
                    if j0 >= tile_end {
                        continue;
                    }
                    let off = row_start(i) - base + (j0 - i - 1);
                    kernel.fill_strip(i, j0, &mut slice[off..off + (tile_end - j0)]);
                }
                tile = tile_end;
            }
        });
        DistanceMatrix { n, data }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix covers no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between points `i` and `j` (0 on the diagonal).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        use std::cmp::Ordering;
        match i.cmp(&j) {
            Ordering::Equal => 0.0,
            Ordering::Less => self.data[i * self.n - i * (i + 1) / 2 + j - i - 1],
            Ordering::Greater => self.data[j * self.n - j * (j + 1) / 2 + i - j - 1],
        }
    }

    /// Restricts the matrix to a subset of points (by index).
    pub fn subset(&self, indices: &[usize]) -> DistanceMatrix {
        DistanceMatrix::from_fn(indices.len(), |a, b| self.get(indices[a], indices[b]))
    }

    /// Mean pairwise distance (0 for fewer than two points).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f64>() / self.data.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Metric;

    #[test]
    fn from_fn_indexing() {
        let m = DistanceMatrix::from_fn(4, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.len(), 4);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0, "symmetric access");
        assert_eq!(m.get(2, 3), 23.0);
        assert_eq!(m.get(3, 3), 0.0, "zero diagonal");
    }

    #[test]
    fn from_points_small_matches_direct() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, (i * i) as f64]).collect();
        let p = Points::new(rows, Metric::Euclidean);
        let m = DistanceMatrix::from_points(&p);
        for i in 0..10 {
            for j in 0..10 {
                assert!((m.get(i, j) - p.dist(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn from_points_parallel_matches_serial() {
        // Force the parallel path (n >= 256) and compare with from_fn.
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![(i as f64).sin(), (i as f64 * 0.7).cos()])
            .collect();
        let p = Points::new(rows, Metric::Manhattan);
        let par = DistanceMatrix::from_points(&p);
        let ser = DistanceMatrix::from_fn(300, |i, j| p.dist(i, j));
        assert_eq!(par, ser);
    }

    #[test]
    fn subset_restricts() {
        let m = DistanceMatrix::from_fn(5, |i, j| (i + j) as f64);
        let s = m.subset(&[0, 2, 4]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(0, 1), m.get(0, 2));
        assert_eq!(s.get(1, 2), m.get(2, 4));
    }

    #[test]
    fn mean_distance() {
        let m = DistanceMatrix::from_fn(3, |_, _| 2.0);
        assert_eq!(m.mean(), 2.0);
        let empty = DistanceMatrix::from_fn(1, |_, _| unreachable!());
        assert_eq!(empty.mean(), 0.0);
    }
}
