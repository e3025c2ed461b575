//! Distance metrics and point sets.
//!
//! Blaeu's preprocessing turns tuples into numeric vectors (normalized
//! continuous variables + dummy-coded categories), then clusters them. The
//! metrics here operate on such vectors, with `NaN` marking missing
//! coordinates: distances are averaged over the observed dimensions
//! (Gower-style), so rows with a few missing cells remain comparable.
//!
//! The hot loops run through [`BlockKernel`] (from
//! [`Points::block_kernel`]): reciprocal ranges are precomputed at fit
//! time, rows whose cells are all observed take a branch-free inner loop,
//! and dictionary codes kept beside the matrix for dummy-coded categorical
//! blocks turn the whole block's float compares into one `u32` equality
//! test, with results bitwise identical to [`Points::dist`].

use blaeu_store::Bitmap;

/// Sentinel dictionary code marking a missing categorical value in coded
/// point sets (see [`Points::from_flat_coded`]).
pub const CODE_NULL: u32 = u32::MAX;

/// A contiguous run of dummy dimensions born from one categorical source
/// column. Within a block, two rows' dummy sub-vectors are equal **iff**
/// their dictionary codes are equal, and a [`CODE_NULL`] code corresponds
/// to the whole block being unobserved (`NaN` dummies) — the invariants the
/// coded fast path relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatBlock {
    /// First dummy dimension of the block.
    pub start: usize,
    /// Number of dummy dimensions (kept levels + optional overflow slot).
    pub len: usize,
}

/// A distance metric over `f64` vectors with optional missing (`NaN`) cells.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Euclidean (L2). Missing dims are skipped and the sum re-scaled by
    /// `dims / observed` before the square root.
    Euclidean,
    /// Manhattan (L1), same missing-dim policy (no square root).
    Manhattan,
    /// Gower dissimilarity for mixed data: per-dimension distances in
    /// `[0, 1]` — numeric dims are |Δ| · 1/range, categorical dims are
    /// 0/1 — averaged over observed dimensions.
    Gower {
        /// Per-dimension reciprocal value ranges for numeric dims
        /// (ignored for categorical dims); zero-range dims carry factor
        /// `0.0` and so contribute no distance. Storing the reciprocal
        /// keeps division out of the distance inner loop.
        inv_ranges: Vec<f64>,
        /// True for dims holding category codes compared by equality.
        categorical: Vec<bool>,
    },
}

impl Metric {
    /// Fits a Gower metric from a flat row-major buffer (`n × dims`) —
    /// the accessor the zero-copy preprocessing path uses, so fitting
    /// ranges never materializes per-row vectors.
    ///
    /// Fully observed rows (the common case) update every dimension's
    /// bounds branch-free; rows with missing cells are revisited through
    /// the word-wise [`Bitmap::iter_ones`] walk of the complement mask.
    /// Ranges are reciprocated once here (`0.0` for zero ranges), so the
    /// distance loops multiply instead of divide.
    ///
    /// # Panics
    /// Panics if `data.len() != n * dims` or a flag count mismatches.
    pub fn fit_gower_flat(data: &[f64], n: usize, dims: usize, categorical: Vec<bool>) -> Metric {
        assert_eq!(data.len(), n * dims, "flat buffer size mismatch");
        assert_eq!(categorical.len(), dims, "flag per dimension");
        let mut lo = vec![f64::INFINITY; dims];
        let mut hi = vec![f64::NEG_INFINITY; dims];
        // Pass 1: fully observed rows, no per-cell branch. The mask of the
        // remaining rows is built word-wise as a side effect.
        let mut holes = Bitmap::new_clear(n);
        for r in 0..n {
            let row = &data[r * dims..(r + 1) * dims];
            if row.iter().all(|v| v.is_finite()) {
                for d in 0..dims {
                    lo[d] = lo[d].min(row[d]);
                    hi[d] = hi[d].max(row[d]);
                }
            } else {
                holes.set(r);
            }
        }
        // Pass 2: only rows with missing cells, per-cell checked.
        for r in holes.iter_ones() {
            let row = &data[r * dims..(r + 1) * dims];
            for d in 0..dims {
                let v = row[d];
                if v.is_finite() {
                    lo[d] = lo[d].min(v);
                    hi[d] = hi[d].max(v);
                }
            }
        }
        let inv_ranges = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| if h > l { 1.0 / (h - l) } else { 0.0 })
            .collect();
        Metric::Gower {
            inv_ranges,
            categorical,
        }
    }

    /// Distance between two vectors of equal length.
    ///
    /// Pairs with **no** commonly observed dimension are maximally
    /// uncertain, not identical: treating them as distance 0 would make
    /// near-empty rows magnetic medoids (they would sit "at distance 0"
    /// from everything). Such pairs get a pessimistic default instead —
    /// the distance of a typical random pair: `1.0` for Gower,
    /// `sqrt(2·dims)` for Euclidean and `dims` for Manhattan on
    /// standardized features.
    pub fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::Euclidean => {
                let mut sum = 0.0;
                let mut observed = 0usize;
                for (x, y) in a.iter().zip(b) {
                    if x.is_finite() && y.is_finite() {
                        sum += (x - y) * (x - y);
                        observed += 1;
                    }
                }
                if observed == 0 {
                    (2.0 * a.len() as f64).sqrt()
                } else {
                    (sum * a.len() as f64 / observed as f64).sqrt()
                }
            }
            Metric::Manhattan => {
                let mut sum = 0.0;
                let mut observed = 0usize;
                for (x, y) in a.iter().zip(b) {
                    if x.is_finite() && y.is_finite() {
                        sum += (x - y).abs();
                        observed += 1;
                    }
                }
                if observed == 0 {
                    a.len() as f64
                } else {
                    sum * a.len() as f64 / observed as f64
                }
            }
            Metric::Gower {
                inv_ranges,
                categorical,
            } => {
                let mut sum = 0.0;
                let mut observed = 0usize;
                for (d, (x, y)) in a.iter().zip(b).enumerate() {
                    if x.is_finite() && y.is_finite() {
                        observed += 1;
                        if categorical[d] {
                            if x != y {
                                sum += 1.0;
                            }
                        } else {
                            sum += (x - y).abs() * inv_ranges[d];
                        }
                    }
                }
                if observed == 0 {
                    1.0
                } else {
                    sum / observed as f64
                }
            }
        }
    }
}

/// The dimension layout a coded point set evaluates over: numeric runs
/// interleaved with categorical code blocks, in dimension order. Both the
/// scalar [`Points::dist`] and the [`BlockKernel`] walk the same segment
/// list, which is what keeps them bitwise identical.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Segment {
    /// Plain dims `start..end` of the flat matrix.
    Numeric { start: usize, end: usize },
    /// Categorical-flagged dims `start..end` compared by equality
    /// (Gower only; other metrics treat flagged dims numerically).
    Dummy { start: usize, end: usize },
    /// Code column `block` standing in for `len` dummy dims.
    Block { block: usize, len: usize },
}

/// Splits `start..end` into maximal runs of equal `flags[d]`, emitting
/// `Dummy` for flagged runs and `Numeric` otherwise. Hoisting the flag
/// test to segment construction removes the per-dim branch from the
/// distance inner loop.
fn push_runs(segments: &mut Vec<Segment>, start: usize, end: usize, flags: Option<&[bool]>) {
    let Some(flags) = flags else {
        segments.push(Segment::Numeric { start, end });
        return;
    };
    let mut run = start;
    while run < end {
        let flagged = flags[run];
        let mut stop = run + 1;
        while stop < end && flags[stop] == flagged {
            stop += 1;
        }
        segments.push(if flagged {
            Segment::Dummy {
                start: run,
                end: stop,
            }
        } else {
            Segment::Numeric {
                start: run,
                end: stop,
            }
        });
        run = stop;
    }
}

fn build_segments(dims: usize, blocks: &[CatBlock], flags: Option<&[bool]>) -> Vec<Segment> {
    let mut segments = Vec::with_capacity(2 * blocks.len() + 1);
    let mut d = 0usize;
    for (bi, b) in blocks.iter().enumerate() {
        assert!(b.len > 0, "empty categorical block");
        assert!(b.start >= d, "categorical blocks overlap or are unsorted");
        assert!(b.start + b.len <= dims, "categorical block beyond dims");
        if d < b.start {
            push_runs(&mut segments, d, b.start, flags);
        }
        segments.push(Segment::Block {
            block: bi,
            len: b.len,
        });
        d = b.start + b.len;
    }
    if d < dims {
        push_runs(&mut segments, d, dims, flags);
    } else if dims == 0 {
        segments.push(Segment::Numeric { start: 0, end: 0 });
    }
    segments
}

/// One segment-walk distance evaluation. `FAST` skips the per-cell
/// observedness checks (caller guarantees both rows are fully observed);
/// the arithmetic sequence is identical either way, so fast and general
/// results agree bitwise on fully observed pairs.
#[inline]
fn segment_dist<const FAST: bool>(
    metric: &Metric,
    segments: &[Segment],
    dims: usize,
    a: &[f64],
    b: &[f64],
    codes_a: &[u32],
    codes_b: &[u32],
) -> f64 {
    let mut sum = 0.0;
    let mut observed = 0usize;
    match metric {
        Metric::Euclidean => {
            for seg in segments {
                match *seg {
                    // Euclidean treats flagged dims numerically (dummies
                    // are 0/1 floats), so Dummy degenerates to Numeric.
                    Segment::Numeric { start, end } | Segment::Dummy { start, end } => {
                        for d in start..end {
                            let (x, y) = (a[d], b[d]);
                            if FAST || (x.is_finite() && y.is_finite()) {
                                sum += (x - y) * (x - y);
                                observed += 1;
                            }
                        }
                    }
                    Segment::Block { block, len } => {
                        let (x, y) = (codes_a[block], codes_b[block]);
                        if FAST || (x != CODE_NULL && y != CODE_NULL) {
                            observed += len;
                            if x != y {
                                // Two differing one-hot dummies: 1² + 1².
                                sum += 2.0;
                            }
                        }
                    }
                }
            }
            if observed == 0 {
                (2.0 * dims as f64).sqrt()
            } else {
                (sum * dims as f64 / observed as f64).sqrt()
            }
        }
        Metric::Manhattan => {
            for seg in segments {
                match *seg {
                    Segment::Numeric { start, end } | Segment::Dummy { start, end } => {
                        for d in start..end {
                            let (x, y) = (a[d], b[d]);
                            if FAST || (x.is_finite() && y.is_finite()) {
                                sum += (x - y).abs();
                                observed += 1;
                            }
                        }
                    }
                    Segment::Block { block, len } => {
                        let (x, y) = (codes_a[block], codes_b[block]);
                        if FAST || (x != CODE_NULL && y != CODE_NULL) {
                            observed += len;
                            if x != y {
                                sum += 2.0;
                            }
                        }
                    }
                }
            }
            if observed == 0 {
                dims as f64
            } else {
                sum * dims as f64 / observed as f64
            }
        }
        Metric::Gower { inv_ranges, .. } => {
            for seg in segments {
                match *seg {
                    // The categorical flags were resolved into Dummy
                    // segments at build time, so the numeric inner loop
                    // is branch-free on the dimension kind.
                    Segment::Numeric { start, end } => {
                        for d in start..end {
                            let (x, y) = (a[d], b[d]);
                            if FAST || (x.is_finite() && y.is_finite()) {
                                observed += 1;
                                sum += (x - y).abs() * inv_ranges[d];
                            }
                        }
                    }
                    Segment::Dummy { start, end } => {
                        for d in start..end {
                            let (x, y) = (a[d], b[d]);
                            if FAST || (x.is_finite() && y.is_finite()) {
                                observed += 1;
                                if x != y {
                                    sum += 1.0;
                                }
                            }
                        }
                    }
                    Segment::Block { block, len } => {
                        let (x, y) = (codes_a[block], codes_b[block]);
                        if FAST || (x != CODE_NULL && y != CODE_NULL) {
                            observed += len;
                            if x != y {
                                sum += 2.0;
                            }
                        }
                    }
                }
            }
            if observed == 0 {
                1.0
            } else {
                sum / observed as f64
            }
        }
    }
}

/// Four distance evaluations sharing one anchor row `a`: lane `l` computes
/// the fast-path distance between `a` and `b[l]`.
///
/// Each lane keeps its own accumulator and walks the dimensions in the
/// exact order [`segment_dist`]`::<true>` does, so every lane's result is
/// bitwise identical to the scalar fast path — the lanes only buy
/// instruction-level parallelism across the four otherwise-serial
/// floating-point add chains. All five rows must be fully observed
/// (caller checks the kernel's `fast` flags), which also pins
/// `observed == dims`, so the finals divide by `dims` directly.
///
/// Because `(x - y)` and `(y - x)` are exact negations (and abs, square
/// and equality are symmetric), `segment_dist4(a, [r0..r3])` is also
/// bitwise equal to `dist(r_l, a)` — callers may orient the anchor either
/// way, which is what the assignment sweep exploits (anchor = medoid).
fn segment_dist4(
    metric: &Metric,
    segments: &[Segment],
    dims: usize,
    a: &[f64],
    b: [&[f64]; 4],
    codes_a: &[u32],
    codes_b: [&[u32]; 4],
) -> [f64; 4] {
    let mut s = [0.0f64; 4];
    match metric {
        Metric::Euclidean => {
            for seg in segments {
                match *seg {
                    Segment::Numeric { start, end } | Segment::Dummy { start, end } => {
                        let xa = &a[start..end];
                        let (b0, b1) = (&b[0][start..end], &b[1][start..end]);
                        let (b2, b3) = (&b[2][start..end], &b[3][start..end]);
                        for (k, &x) in xa.iter().enumerate() {
                            let d0 = x - b0[k];
                            let d1 = x - b1[k];
                            let d2 = x - b2[k];
                            let d3 = x - b3[k];
                            s[0] += d0 * d0;
                            s[1] += d1 * d1;
                            s[2] += d2 * d2;
                            s[3] += d3 * d3;
                        }
                    }
                    Segment::Block { block, .. } => {
                        let x = codes_a[block];
                        for l in 0..4 {
                            if x != codes_b[l][block] {
                                s[l] += 2.0;
                            }
                        }
                    }
                }
            }
            if dims == 0 {
                [(2.0 * dims as f64).sqrt(); 4]
            } else {
                s.map(|v| (v * dims as f64 / dims as f64).sqrt())
            }
        }
        Metric::Manhattan => {
            for seg in segments {
                match *seg {
                    Segment::Numeric { start, end } | Segment::Dummy { start, end } => {
                        let xa = &a[start..end];
                        let (b0, b1) = (&b[0][start..end], &b[1][start..end]);
                        let (b2, b3) = (&b[2][start..end], &b[3][start..end]);
                        for (k, &x) in xa.iter().enumerate() {
                            s[0] += (x - b0[k]).abs();
                            s[1] += (x - b1[k]).abs();
                            s[2] += (x - b2[k]).abs();
                            s[3] += (x - b3[k]).abs();
                        }
                    }
                    Segment::Block { block, .. } => {
                        let x = codes_a[block];
                        for l in 0..4 {
                            if x != codes_b[l][block] {
                                s[l] += 2.0;
                            }
                        }
                    }
                }
            }
            if dims == 0 {
                [dims as f64; 4]
            } else {
                s.map(|v| v * dims as f64 / dims as f64)
            }
        }
        Metric::Gower { inv_ranges, .. } => {
            for seg in segments {
                match *seg {
                    Segment::Numeric { start, end } => {
                        let xa = &a[start..end];
                        let inv = &inv_ranges[start..end];
                        let (b0, b1) = (&b[0][start..end], &b[1][start..end]);
                        let (b2, b3) = (&b[2][start..end], &b[3][start..end]);
                        for (k, (&x, &w)) in xa.iter().zip(inv).enumerate() {
                            s[0] += (x - b0[k]).abs() * w;
                            s[1] += (x - b1[k]).abs() * w;
                            s[2] += (x - b2[k]).abs() * w;
                            s[3] += (x - b3[k]).abs() * w;
                        }
                    }
                    Segment::Dummy { start, end } => {
                        let xa = &a[start..end];
                        let (b0, b1) = (&b[0][start..end], &b[1][start..end]);
                        let (b2, b3) = (&b[2][start..end], &b[3][start..end]);
                        for (k, &x) in xa.iter().enumerate() {
                            if x != b0[k] {
                                s[0] += 1.0;
                            }
                            if x != b1[k] {
                                s[1] += 1.0;
                            }
                            if x != b2[k] {
                                s[2] += 1.0;
                            }
                            if x != b3[k] {
                                s[3] += 1.0;
                            }
                        }
                    }
                    Segment::Block { block, .. } => {
                        let x = codes_a[block];
                        for l in 0..4 {
                            if x != codes_b[l][block] {
                                s[l] += 2.0;
                            }
                        }
                    }
                }
            }
            if dims == 0 {
                [1.0; 4]
            } else {
                s.map(|v| v / dims as f64)
            }
        }
    }
}

/// A dense row-major point set paired with a metric.
///
/// This is the clustering engine's working representation: preprocessing
/// produces it from a table sample, PAM/CLARA/k-means consume it. Coded
/// sets additionally carry a `u32` dictionary code per categorical block
/// beside the flat matrix ([`Points::from_flat_coded`]): distance
/// evaluation then compares codes instead of the block's dummy floats.
#[derive(Debug, Clone)]
pub struct Points {
    data: Vec<f64>,
    n: usize,
    dims: usize,
    metric: Metric,
    cat_blocks: Vec<CatBlock>,
    /// `n × cat_blocks.len()` row-major dictionary codes ([`CODE_NULL`]
    /// for missing). Empty when the set carries no coded blocks.
    cat_codes: Vec<u32>,
    segments: Vec<Segment>,
}

impl Points {
    /// Builds a point set from rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn new(rows: Vec<Vec<f64>>, metric: Metric) -> Self {
        let n = rows.len();
        let dims = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * dims);
        for row in &rows {
            assert_eq!(row.len(), dims, "ragged point set");
            data.extend_from_slice(row);
        }
        Points::from_flat(data, n, dims, metric)
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != n * dims`.
    fn from_flat(data: Vec<f64>, n: usize, dims: usize, metric: Metric) -> Self {
        Points::from_flat_coded(data, n, dims, metric, Vec::new(), Vec::new())
    }

    /// Builds from a flat row-major buffer plus dictionary codes for
    /// dummy-coded categorical blocks.
    ///
    /// The caller (normally preprocessing) guarantees the coded
    /// invariant: within each block, two rows' dummy sub-vectors are
    /// equal iff their codes are equal, and a [`CODE_NULL`] code means
    /// the block's dummies are all unobserved (`NaN`).
    ///
    /// # Panics
    /// Panics if buffer sizes mismatch, blocks are unsorted / overlapping
    /// / out of bounds, or (for Gower) a block covers dims not flagged
    /// categorical.
    pub fn from_flat_coded(
        data: Vec<f64>,
        n: usize,
        dims: usize,
        metric: Metric,
        cat_blocks: Vec<CatBlock>,
        cat_codes: Vec<u32>,
    ) -> Self {
        assert_eq!(data.len(), n * dims, "flat buffer size mismatch");
        assert_eq!(
            cat_codes.len(),
            n * cat_blocks.len(),
            "one code per row per categorical block"
        );
        let flags = match &metric {
            Metric::Gower { categorical, .. } => Some(categorical.as_slice()),
            _ => None,
        };
        let segments = build_segments(dims, &cat_blocks, flags);
        if let Metric::Gower { categorical, .. } = &metric {
            for b in &cat_blocks {
                assert!(
                    categorical[b.start..b.start + b.len].iter().all(|&c| c),
                    "coded block over non-categorical dims"
                );
            }
        }
        Points {
            data,
            n,
            dims,
            metric,
            cat_blocks,
            cat_codes,
            segments,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the set holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The metric in use.
    pub fn metric(&self) -> &Metric {
        &self.metric
    }

    /// The categorical code blocks (empty for uncoded sets).
    pub fn cat_blocks(&self) -> &[CatBlock] {
        &self.cat_blocks
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Row `i`'s dictionary codes (empty for uncoded sets).
    #[inline]
    pub fn codes(&self, i: usize) -> &[u32] {
        let nb = self.cat_blocks.len();
        &self.cat_codes[i * nb..(i + 1) * nb]
    }

    /// Distance between points `i` and `j`.
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        segment_dist::<false>(
            &self.metric,
            &self.segments,
            self.dims,
            self.row(i),
            self.row(j),
            self.codes(i),
            self.codes(j),
        )
    }

    /// A reusable evaluation kernel over this point set (precomputed
    /// per-row observedness flags). Every distance it produces is bitwise
    /// identical to [`Points::dist`].
    pub fn block_kernel(&self) -> BlockKernel<'_> {
        let fast = (0..self.n)
            .map(|i| {
                self.row(i).iter().all(|v| v.is_finite())
                    && self.codes(i).iter().all(|&c| c != CODE_NULL)
            })
            .collect();
        BlockKernel { points: self, fast }
    }

    /// Gathers a subset of points (by index) into a new set.
    pub fn subset(&self, indices: &[usize]) -> Points {
        let mut data = Vec::with_capacity(indices.len() * self.dims);
        let nb = self.cat_blocks.len();
        let mut cat_codes = Vec::with_capacity(indices.len() * nb);
        for &i in indices {
            data.extend_from_slice(self.row(i));
            cat_codes.extend_from_slice(self.codes(i));
        }
        Points {
            data,
            n: indices.len(),
            dims: self.dims,
            metric: self.metric.clone(),
            cat_blocks: self.cat_blocks.clone(),
            cat_codes,
            segments: self.segments.clone(),
        }
    }
}

/// A cache-friendly distance kernel over a [`Points`] set.
///
/// Construction scans every row once and remembers whether it is fully
/// observed (all cells finite, no [`CODE_NULL`] codes); pairs of such rows
/// take branch-free inner loops. The arithmetic sequence per cell matches
/// the scalar path exactly, so fills are bitwise identical to calling
/// [`Points::dist`] per pair — whatever the tiling or thread layout above.
#[derive(Debug)]
pub struct BlockKernel<'a> {
    points: &'a Points,
    fast: Vec<bool>,
}

impl BlockKernel<'_> {
    /// Distance between points `i` and `j` (bitwise equal to
    /// [`Points::dist`]).
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        let p = self.points;
        if self.fast[i] && self.fast[j] {
            segment_dist::<true>(
                &p.metric,
                &p.segments,
                p.dims,
                p.row(i),
                p.row(j),
                p.codes(i),
                p.codes(j),
            )
        } else {
            p.dist(i, j)
        }
    }

    /// Fills `out[k] = dist(i, j_start + k)` for a contiguous strip of
    /// columns — the inner primitive of the condensed-matrix fill. The
    /// row-`i` observedness branch is hoisted out of the loop, and runs
    /// of four fully observed columns take the four-lane kernel
    /// (`segment_dist4`), which is bitwise identical per cell.
    pub fn fill_strip(&self, i: usize, j_start: usize, out: &mut [f64]) {
        let p = self.points;
        if self.fast[i] {
            let (a, ca) = (p.row(i), p.codes(i));
            let mut k = 0usize;
            while k + 4 <= out.len() {
                let j = j_start + k;
                if self.fast[j] && self.fast[j + 1] && self.fast[j + 2] && self.fast[j + 3] {
                    let quad = segment_dist4(
                        &p.metric,
                        &p.segments,
                        p.dims,
                        a,
                        [p.row(j), p.row(j + 1), p.row(j + 2), p.row(j + 3)],
                        ca,
                        [p.codes(j), p.codes(j + 1), p.codes(j + 2), p.codes(j + 3)],
                    );
                    out[k..k + 4].copy_from_slice(&quad);
                } else {
                    for t in 0..4 {
                        out[k + t] = self.dist(i, j + t);
                    }
                }
                k += 4;
            }
            for (t, slot) in out.iter_mut().enumerate().skip(k) {
                *slot = self.dist(i, j_start + t);
            }
        } else {
            for (k, slot) in out.iter_mut().enumerate() {
                *slot = p.dist(i, j_start + k);
            }
        }
    }

    /// Fills `out[l] = dist(rows[l], m)` for four consecutive evaluation
    /// rows against one shared target — the assignment-sweep primitive.
    /// When the target and all four rows are fully observed this anchors
    /// the four-lane kernel at the *target* row, which by operand-swap
    /// symmetry (`x−y` and `y−x` are exact negations; abs, square and
    /// equality are symmetric) is bitwise equal to the row-anchored
    /// scalar evaluation.
    pub fn dists_tile4(&self, rows: [usize; 4], m: usize, out: &mut [f64; 4]) {
        let p = self.points;
        if self.fast[m] && rows.iter().all(|&r| self.fast[r]) {
            *out = segment_dist4(
                &p.metric,
                &p.segments,
                p.dims,
                p.row(m),
                [
                    p.row(rows[0]),
                    p.row(rows[1]),
                    p.row(rows[2]),
                    p.row(rows[3]),
                ],
                p.codes(m),
                [
                    p.codes(rows[0]),
                    p.codes(rows[1]),
                    p.codes(rows[2]),
                    p.codes(rows[3]),
                ],
            );
        } else {
            for (slot, &r) in out.iter_mut().zip(&rows) {
                *slot = self.dist(r, m);
            }
        }
    }

    /// Fills `out[s] = dist(i, targets[s])` — the assignment sweep
    /// primitive (targets are typically the medoid rows, which stay hot
    /// in cache across consecutive `i`).
    pub fn dists_to(&self, i: usize, targets: &[usize], out: &mut [f64]) {
        debug_assert_eq!(targets.len(), out.len());
        let p = self.points;
        if self.fast[i] {
            let (a, ca) = (p.row(i), p.codes(i));
            for (slot, &m) in out.iter_mut().zip(targets) {
                *slot = if self.fast[m] {
                    segment_dist::<true>(
                        &p.metric,
                        &p.segments,
                        p.dims,
                        a,
                        p.row(m),
                        ca,
                        p.codes(m),
                    )
                } else {
                    p.dist(i, m)
                };
            }
        } else {
            for (slot, &m) in out.iter_mut().zip(targets) {
                *slot = p.dist(i, m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gower fit over per-row vectors.
    fn fit_gower(rows: &[Vec<f64>], categorical: Vec<bool>) -> Metric {
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        Metric::fit_gower_flat(&flat, rows.len(), rows[0].len(), categorical)
    }

    #[test]
    fn euclidean_basics() {
        let m = Metric::Euclidean;
        assert_eq!(m.dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(m.dist(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn manhattan_basics() {
        let m = Metric::Manhattan;
        assert_eq!(m.dist(&[0.0, 0.0], &[3.0, 4.0]), 7.0);
    }

    #[test]
    fn missing_dims_rescaled() {
        let m = Metric::Euclidean;
        // One of two dims observed: distance scales up by sqrt(2/1).
        let d = m.dist(&[3.0, f64::NAN], &[0.0, 5.0]);
        assert!((d - (9.0f64 * 2.0).sqrt()).abs() < 1e-12);
        let m = Metric::Manhattan;
        let d = m.dist(&[3.0, f64::NAN], &[0.0, 5.0]);
        assert!((d - 6.0).abs() < 1e-12);
    }

    #[test]
    fn unobservable_pairs_are_pessimistic_not_identical() {
        // No common observed dimension: the pair must NOT look identical,
        // or near-empty rows would become magnetic medoids.
        assert!((Metric::Euclidean.dist(&[f64::NAN], &[1.0]) - 2.0f64.sqrt()).abs() < 1e-12);
        assert!((Metric::Euclidean.dist(&[f64::NAN, 2.0], &[1.0, f64::NAN]) - 2.0).abs() < 1e-12);
        assert_eq!(
            Metric::Manhattan.dist(&[f64::NAN, f64::NAN], &[1.0, 2.0]),
            2.0
        );
        let g = Metric::Gower {
            inv_ranges: vec![1.0, 1.0],
            categorical: vec![false, false],
        };
        assert_eq!(g.dist(&[f64::NAN, f64::NAN], &[1.0, 2.0]), 1.0);
    }

    #[test]
    fn gower_mixed() {
        let rows = vec![vec![0.0, 0.0], vec![10.0, 1.0], vec![5.0, 0.0]];
        let m = fit_gower(&rows, vec![false, true]);
        // dims: numeric range 10, categorical.
        // d(0,1) = (10/10 + 1)/2 = 1.0
        assert!((m.dist(&rows[0], &rows[1]) - 1.0).abs() < 1e-12);
        // d(0,2) = (5/10 + 0)/2 = 0.25
        assert!((m.dist(&rows[0], &rows[2]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn gower_zero_range_ignored() {
        let rows = vec![vec![7.0, 0.0], vec![7.0, 3.0]];
        let m = fit_gower(&rows, vec![false, false]);
        // First dim constant → factor 0.0; second: 3/3 = 1; avg over 2.
        assert!((m.dist(&rows[0], &rows[1]) - 0.5).abs() < 1e-12);
        if let Metric::Gower { inv_ranges, .. } = &m {
            assert_eq!(inv_ranges[0], 0.0, "zero range reciprocates to 0.0");
        } else {
            unreachable!()
        }
    }

    #[test]
    fn gower_in_unit_interval() {
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i % 3) as f64, (i * 7 % 5) as f64])
            .collect();
        let m = fit_gower(&rows, vec![false, true, false]);
        for i in 0..rows.len() {
            for j in 0..rows.len() {
                let d = m.dist(&rows[i], &rows[j]);
                assert!((0.0..=1.0).contains(&d), "gower({i},{j}) = {d}");
            }
        }
    }

    #[test]
    fn fit_gower_flat_handles_scattered_missing() {
        // Bounds must come from observed cells of *both* passes: make the
        // extreme of one dim live on a row that is missing another dim.
        let flat = vec![
            1.0,
            f64::NAN, //
            100.0,
            5.0, //
            -50.0,
            7.0,
        ];
        let m = Metric::fit_gower_flat(&flat, 3, 2, vec![false, false]);
        if let Metric::Gower { inv_ranges, .. } = m {
            assert!((inv_ranges[0] - 1.0 / 150.0).abs() < 1e-15);
            assert!((inv_ranges[1] - 1.0 / 2.0).abs() < 1e-15);
        } else {
            unreachable!()
        }
    }

    #[test]
    fn points_layout() {
        let p = Points::new(
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            Metric::Euclidean,
        );
        assert_eq!(p.len(), 3);
        assert_eq!(p.dims(), 2);
        assert_eq!(p.row(1), &[3.0, 4.0]);
        assert!((p.dist(0, 1) - 8.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn subset_gathers() {
        let p = Points::new(vec![vec![1.0], vec![2.0], vec![3.0]], Metric::Manhattan);
        let s = p.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[3.0]);
        assert_eq!(s.row(1), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Points::new(vec![vec![1.0], vec![1.0, 2.0]], Metric::Euclidean);
    }

    #[test]
    fn from_flat_roundtrip() {
        let p = Points::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2, 2, Metric::Euclidean);
        assert_eq!(p.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn metric_symmetry_and_identity() {
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![(i as f64).sin(), (i as f64).cos(), i as f64])
            .collect();
        for metric in [
            Metric::Euclidean,
            Metric::Manhattan,
            fit_gower(&rows, vec![false, false, false]),
        ] {
            for i in 0..rows.len() {
                assert_eq!(metric.dist(&rows[i], &rows[i]), 0.0);
                for j in 0..rows.len() {
                    let dij = metric.dist(&rows[i], &rows[j]);
                    let dji = metric.dist(&rows[j], &rows[i]);
                    assert!((dij - dji).abs() < 1e-12);
                    assert!(dij >= 0.0);
                }
            }
        }
    }

    /// Deterministic pseudo-random mixed data: 2 numeric dims (with some
    /// NaN holes), one 3-dummy coded block, one trailing numeric dim.
    fn coded_fixture(n: usize) -> Points {
        let dims = 6;
        let mut data = Vec::with_capacity(n * dims);
        let mut codes = Vec::with_capacity(n);
        for i in 0..n {
            let h = i.wrapping_mul(2654435761) % 97;
            let x0 = if h % 13 == 0 {
                f64::NAN
            } else {
                h as f64 / 97.0
            };
            let x1 = ((h * 7) % 31) as f64;
            let level = if h % 11 == 0 {
                CODE_NULL
            } else {
                (h % 3) as u32
            };
            let x5 = if h % 17 == 0 {
                f64::NAN
            } else {
                (h as f64).sin()
            };
            data.push(x0);
            data.push(x1);
            for slot in 0..3u32 {
                data.push(if level == CODE_NULL {
                    f64::NAN
                } else {
                    f64::from(level == slot)
                });
            }
            data.push(x5);
            codes.push(level);
        }
        let metric =
            Metric::fit_gower_flat(&data, n, dims, vec![false, false, true, true, true, false]);
        Points::from_flat_coded(
            data,
            n,
            dims,
            metric,
            vec![CatBlock { start: 2, len: 3 }],
            codes,
        )
    }

    #[test]
    fn coded_dist_matches_dummy_dist() {
        // The coded segment walk must agree with evaluating the raw dummy
        // matrix through Metric::dist (same dims, flags, ranges).
        let p = coded_fixture(60);
        for i in 0..p.len() {
            for j in 0..p.len() {
                let coded = p.dist(i, j);
                let dummy = p.metric().dist(p.row(i), p.row(j));
                assert!(
                    (coded - dummy).abs() < 1e-12,
                    "coded {coded} vs dummy {dummy} at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn block_kernel_is_bitwise_identical_to_scalar() {
        let p = coded_fixture(80);
        let k = p.block_kernel();
        for i in 0..p.len() {
            for j in 0..p.len() {
                assert_eq!(
                    k.dist(i, j).to_bits(),
                    p.dist(i, j).to_bits(),
                    "kernel differs at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn fill_strip_and_dists_to_match_dist() {
        let p = coded_fixture(50);
        let k = p.block_kernel();
        let mut strip = vec![0.0; 30];
        k.fill_strip(7, 15, &mut strip);
        for (s, slot) in strip.iter().enumerate() {
            assert_eq!(slot.to_bits(), p.dist(7, 15 + s).to_bits());
        }
        let targets = [3usize, 28, 44, 9];
        let mut out = vec![0.0; targets.len()];
        for i in 0..p.len() {
            k.dists_to(i, &targets, &mut out);
            for (s, &m) in targets.iter().enumerate() {
                assert_eq!(out[s].to_bits(), p.dist(i, m).to_bits());
            }
        }
    }

    #[test]
    fn four_lane_paths_match_scalar_bitwise() {
        // Fixture with a flagged-but-uncoded (Dummy-segment) dim plus NaN
        // holes: strips and medoid tiles through the four-lane kernel must
        // equal the scalar path bit-for-bit, fast and holed rows alike.
        let n = 53; // not a multiple of 4 — exercises the straggler tail
        let dims = 4;
        let mut data = Vec::with_capacity(n * dims);
        for i in 0..n {
            let h = i.wrapping_mul(2654435761) % 89;
            data.push(if h % 23 == 0 {
                f64::NAN
            } else {
                (h as f64).sin()
            });
            data.push(((h * 5) % 7) as f64); // categorical levels kept as floats
            data.push(h as f64 / 89.0);
            data.push(if h % 29 == 0 {
                f64::NAN
            } else {
                (h as f64).cos()
            });
        }
        let metric = Metric::fit_gower_flat(&data, n, dims, vec![false, true, false, false]);
        let p = Points::from_flat(data, n, dims, metric);
        let k = p.block_kernel();
        let mut strip = vec![0.0; n - 1];
        k.fill_strip(3, 1, &mut strip);
        for (s, slot) in strip.iter().enumerate() {
            assert_eq!(slot.to_bits(), p.dist(3, 1 + s).to_bits());
        }
        let medoids = [2usize, 17, 40];
        let mut out = [0.0f64; 4];
        for j in (0..n - 4).step_by(3) {
            for &m in &medoids {
                k.dists_tile4([j, j + 1, j + 2, j + 3], m, &mut out);
                for (l, d) in out.iter().enumerate() {
                    assert_eq!(d.to_bits(), p.dist(j + l, m).to_bits());
                }
            }
        }
    }

    #[test]
    fn null_codes_make_block_unobserved() {
        let p = coded_fixture(60);
        // Find a pair where one side's block is missing: the distance must
        // average over the remaining observed dims only — never panic,
        // never compare against the sentinel as a real level.
        let i = (0..p.len())
            .find(|&i| p.codes(i)[0] == CODE_NULL)
            .expect("fixture contains null codes");
        let j = (0..p.len())
            .find(|&j| p.codes(j)[0] != CODE_NULL)
            .expect("fixture contains observed codes");
        let d = p.dist(i, j);
        assert!(d.is_finite());
        assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_blocks_panic() {
        let _ = Points::from_flat_coded(
            vec![0.0; 8],
            2,
            4,
            Metric::Manhattan,
            vec![CatBlock { start: 0, len: 2 }, CatBlock { start: 1, len: 2 }],
            vec![0, 0, 0, 0],
        );
    }

    #[test]
    #[should_panic(expected = "one code per row")]
    fn code_count_mismatch_panics() {
        let _ = Points::from_flat_coded(
            vec![0.0; 8],
            2,
            4,
            Metric::Manhattan,
            vec![CatBlock { start: 0, len: 2 }],
            vec![0],
        );
    }
}
