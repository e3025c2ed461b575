//! Discretization of continuous columns.
//!
//! Mutual information over mixed data needs discrete symbols. Numeric
//! columns are discretized with equal-width or equal-frequency bins;
//! categorical and boolean columns already carry discrete codes.

use blaeu_store::{Bitmap, ColumnRead, DataType};

/// Rule for choosing the number of bins when the caller does not fix it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinRule {
    /// Fixed number of bins.
    Fixed(usize),
    /// Sturges' rule: `ceil(log2 n) + 1`.
    Sturges,
    /// Square-root rule capped at 32 bins (robust default for MI).
    SqrtCapped,
}

impl BinRule {
    /// Number of bins for `n` observations (always ≥ 2).
    pub fn bins(self, n: usize) -> usize {
        let b = match self {
            BinRule::Fixed(b) => b,
            BinRule::Sturges => (n.max(1) as f64).log2().ceil() as usize + 1,
            BinRule::SqrtCapped => ((n.max(1) as f64).sqrt() as usize).min(32),
        };
        b.max(2)
    }
}

/// Binning strategy for numeric data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinStrategy {
    /// Bins of equal value width between min and max.
    EqualWidth,
    /// Bins holding (approximately) equal numbers of observations.
    /// Robust to skew and outliers; the default for MI.
    EqualFrequency,
}

/// A fitted discretizer mapping `f64` values to bin codes `0..nbins`.
#[derive(Debug, Clone)]
pub struct Discretizer {
    /// Upper edge of each bin except the last (length `nbins - 1`),
    /// ascending. A value `v` lands in the first bin whose edge exceeds it.
    edges: Vec<f64>,
}

impl Discretizer {
    /// Fits a discretizer on the non-NULL values of a column sample.
    ///
    /// Degenerate inputs (constant or empty data) yield a single bin.
    /// Equal-width bins need only the finite range, so only
    /// equal-frequency bins sort the sample.
    pub fn fit(values: &[f64], strategy: BinStrategy, nbins: usize) -> Self {
        match strategy {
            BinStrategy::EqualWidth => equal_width_over(
                values
                    .iter()
                    .fold(None, |range, &v| include_finite(range, v)),
                nbins,
            ),
            BinStrategy::EqualFrequency => {
                let mut sorted: Vec<f64> =
                    values.iter().copied().filter(|v| v.is_finite()).collect();
                sorted.sort_by(f64::total_cmp);
                if sorted.is_empty() || sorted[0] == sorted[sorted.len() - 1] {
                    return Discretizer { edges: Vec::new() };
                }
                let nbins = nbins.max(2);
                let n = sorted.len();
                let mut edges = Vec::with_capacity(nbins - 1);
                for b in 1..nbins {
                    let q = sorted[(b * n / nbins).min(n - 1)];
                    // Skip duplicate edges caused by heavy ties.
                    if edges.last().is_none_or(|&last| q > last) {
                        edges.push(q);
                    }
                }
                Discretizer { edges }
            }
        }
    }

    /// Equal-width bins over `[lo, hi]` (at least two), or a single bin
    /// when `lo == hi`.
    fn equal_width(lo: f64, hi: f64, nbins: usize) -> Self {
        if lo == hi {
            return Discretizer { edges: Vec::new() };
        }
        let nbins = nbins.max(2);
        let width = (hi - lo) / nbins as f64;
        Discretizer {
            edges: (1..nbins).map(|b| lo + width * b as f64).collect(),
        }
    }

    /// Upper edge of each bin except the last, ascending.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Number of bins this discretizer produces.
    pub fn nbins(&self) -> usize {
        self.edges.len() + 1
    }

    /// Bin code for a value.
    #[inline]
    pub fn code(&self, v: f64) -> u32 {
        // Binary search: first edge strictly greater than v.
        self.edges.partition_point(|&e| e <= v) as u32
    }
}

/// Widens a running finite `(min, max)` by `v` under [`f64::total_cmp`];
/// NaN and ±inf leave it unchanged. The result is bit-identical to the
/// first and last element of the finite values sorted by `total_cmp`
/// (`-0.0` orders below `0.0`), without the sort.
pub(crate) fn include_finite(range: Option<(f64, f64)>, v: f64) -> Option<(f64, f64)> {
    if !v.is_finite() {
        return range;
    }
    Some(match range {
        None => (v, v),
        Some((lo, hi)) => (
            if v.total_cmp(&lo).is_lt() { v } else { lo },
            if v.total_cmp(&hi).is_gt() { v } else { hi },
        ),
    })
}

/// Equal-width bins over a finite range built by [`include_finite`]; a
/// single bin when the values had none.
pub(crate) fn equal_width_over(range: Option<(f64, f64)>, nbins: usize) -> Discretizer {
    range.map_or(Discretizer { edges: Vec::new() }, |(lo, hi)| {
        Discretizer::equal_width(lo, hi, nbins)
    })
}

/// Discrete view of a column: a dense `u32` code per row plus a validity
/// bitmap (set = non-NULL), the layout the count-table kernels scan
/// directly. This is the common currency of the entropy/MI machinery.
#[derive(Debug, Clone)]
pub struct DiscreteColumn {
    /// Per-row code, meaningful only where `validity` is set (NULL rows
    /// carry 0).
    pub codes: Vec<u32>,
    /// Set bits mark non-NULL rows.
    pub validity: Bitmap,
    /// Number of distinct codes (`codes` values are `< cardinality`).
    pub cardinality: usize,
}

impl DiscreteColumn {
    /// Builds from per-row optional codes (the pre-kernel representation;
    /// handy in tests and for callers holding `Option<u32>` rows).
    pub fn from_options(
        codes: impl IntoIterator<Item = Option<u32>>,
        cardinality: usize,
    ) -> DiscreteColumn {
        let opts: Vec<Option<u32>> = codes.into_iter().collect();
        let mut validity = Bitmap::new_clear(opts.len());
        let mut dense = Vec::with_capacity(opts.len());
        for (i, c) in opts.iter().enumerate() {
            match c {
                Some(v) => {
                    validity.set(i);
                    dense.push(*v);
                }
                None => dense.push(0),
            }
        }
        DiscreteColumn {
            codes: dense,
            validity,
            cardinality,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Code at `row`, `None` where the source cell was NULL.
    pub fn get(&self, row: usize) -> Option<u32> {
        self.validity.get(row).then(|| self.codes[row])
    }
}

/// Discretizes any column (owned or view-selected — any [`ColumnRead`])
/// into symbol codes.
///
/// * Numeric columns are binned with `strategy` / `rule` (fitted on their
///   own non-NULL values).
/// * Categorical columns reuse their dictionary codes — columns exposing
///   [`ColumnRead::code_parts`] (owned columns, identity views) are
///   copied wholesale, no per-row accessor calls.
/// * Boolean columns map to codes {0, 1}.
pub fn discretize<C: ColumnRead>(
    column: &C,
    strategy: BinStrategy,
    rule: BinRule,
) -> DiscreteColumn {
    match column.data_type() {
        DataType::Categorical => {
            let cardinality = column.dictionary().len().max(1);
            if let Some((codes, validity)) = column.code_parts() {
                return DiscreteColumn {
                    codes: codes.to_vec(),
                    validity: validity.clone(),
                    cardinality,
                };
            }
            DiscreteColumn::from_options((0..column.len()).map(|i| column.code_at(i)), cardinality)
        }
        DataType::Bool => DiscreteColumn::from_options(
            (0..column.len()).map(|i| column.numeric_at(i).map(|v| v as u32)),
            2,
        ),
        DataType::Float64 | DataType::Int64 => {
            let valid: Vec<f64> = (0..column.len())
                .filter_map(|i| column.numeric_at(i))
                .collect();
            let disc = Discretizer::fit(&valid, strategy, rule.bins(valid.len()));
            DiscreteColumn::from_options(
                (0..column.len()).map(|i| column.numeric_at(i).map(|v| disc.code(v))),
                disc.nbins(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaeu_store::Column;

    #[test]
    fn bin_rules() {
        assert_eq!(BinRule::Fixed(5).bins(1000), 5);
        assert_eq!(BinRule::Fixed(0).bins(1000), 2, "clamped to 2");
        assert_eq!(BinRule::Sturges.bins(1024), 11);
        assert_eq!(BinRule::SqrtCapped.bins(100), 10);
        assert_eq!(BinRule::SqrtCapped.bins(100_000), 32, "capped");
    }

    #[test]
    fn equal_width_splits_range() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let d = Discretizer::fit(&vals, BinStrategy::EqualWidth, 4);
        assert_eq!(d.nbins(), 4);
        assert_eq!(d.code(0.0), 0);
        assert_eq!(d.code(30.0), 1);
        assert_eq!(d.code(60.0), 2);
        assert_eq!(d.code(99.0), 3);
        // Out-of-range values clamp into the edge bins.
        assert_eq!(d.code(-100.0), 0);
        assert_eq!(d.code(1e9), 3);
    }

    #[test]
    fn equal_frequency_balances_counts() {
        // Heavily skewed data: equal-width would put nearly everything in
        // bin 0; equal-frequency must balance.
        let vals: Vec<f64> = (0..1000).map(|i| (i as f64 / 10.0).exp()).collect();
        let d = Discretizer::fit(&vals, BinStrategy::EqualFrequency, 4);
        let mut counts = vec![0usize; d.nbins()];
        for &v in &vals {
            counts[d.code(v) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (200..=300).contains(&c),
                "equal-frequency bins should hold ~250 each, got {counts:?}"
            );
        }
    }

    #[test]
    fn constant_data_single_bin() {
        let d = Discretizer::fit(&[5.0; 10], BinStrategy::EqualFrequency, 4);
        assert_eq!(d.nbins(), 1);
        assert_eq!(d.code(5.0), 0);
        let d = Discretizer::fit(&[], BinStrategy::EqualWidth, 4);
        assert_eq!(d.nbins(), 1);
    }

    #[test]
    fn ties_collapse_duplicate_edges() {
        // 90% of the data is the same value; equal-frequency quantiles tie.
        let mut vals = vec![1.0; 90];
        vals.extend((0..10).map(|i| 10.0 + i as f64));
        let d = Discretizer::fit(&vals, BinStrategy::EqualFrequency, 4);
        assert!(d.nbins() >= 2);
        assert!(d.nbins() <= 4);
        // All tied values land in one bin.
        assert_eq!(d.code(1.0), d.code(1.0));
    }

    #[test]
    fn discretize_numeric_column() {
        let col = Column::from_f64s((0..50).map(|i| Some(i as f64)).chain([None]));
        let dc = discretize(&col, BinStrategy::EqualFrequency, BinRule::Fixed(5));
        assert_eq!(dc.len(), 51);
        assert_eq!(dc.cardinality, 5);
        assert_eq!(dc.get(50), None);
        assert!((0..50).all(|i| dc.get(i).unwrap() < 5));
    }

    #[test]
    fn discretize_categorical_passthrough() {
        let col = Column::from_strs([Some("a"), Some("b"), None, Some("a")]);
        let dc = discretize(&col, BinStrategy::EqualFrequency, BinRule::Fixed(5));
        assert_eq!(dc.cardinality, 2);
        let got: Vec<Option<u32>> = (0..dc.len()).map(|i| dc.get(i)).collect();
        assert_eq!(got, vec![Some(0), Some(1), None, Some(0)]);
    }

    #[test]
    fn discretize_categorical_matches_per_row_on_views() {
        // The code_parts wholesale copy (identity) and the per-row mapped
        // path must agree on the same selection.
        use blaeu_store::{TableBuilder, TableView};
        let labels: Vec<Option<&str>> = (0..40)
            .map(|i| match i % 5 {
                0 => Some("a"),
                1 => Some("b"),
                2 => None,
                3 => Some("c"),
                _ => Some("a"),
            })
            .collect();
        let t = TableBuilder::new("t")
            .column("cat", Column::from_strs(labels))
            .unwrap()
            .build()
            .unwrap();
        let rows: Vec<u32> = (0..40u32).rev().collect();
        let taken = t.take(&rows).unwrap();
        let view = TableView::with_rows(std::sync::Arc::new(t), rows).unwrap();
        let from_identity = discretize(
            taken.column_by_name("cat").unwrap(),
            BinStrategy::EqualFrequency,
            BinRule::Fixed(4),
        );
        let from_mapped = discretize(
            &view.col_by_name("cat").unwrap(),
            BinStrategy::EqualFrequency,
            BinRule::Fixed(4),
        );
        assert_eq!(from_identity.cardinality, from_mapped.cardinality);
        for i in 0..from_mapped.len() {
            assert_eq!(from_identity.get(i), from_mapped.get(i), "row {i}");
        }
    }

    #[test]
    fn discretize_bool() {
        let col = Column::from_bools([Some(true), Some(false), None]);
        let dc = discretize(&col, BinStrategy::EqualWidth, BinRule::Sturges);
        assert_eq!(dc.cardinality, 2);
        let got: Vec<Option<u32>> = (0..dc.len()).map(|i| dc.get(i)).collect();
        assert_eq!(got, vec![Some(1), Some(0), None]);
    }

    #[test]
    fn from_options_roundtrip() {
        let dc = DiscreteColumn::from_options([Some(2), None, Some(0)], 3);
        assert_eq!(dc.len(), 3);
        assert!(!dc.is_empty());
        assert_eq!(dc.get(0), Some(2));
        assert_eq!(dc.get(1), None);
        assert_eq!(dc.get(2), Some(0));
        assert_eq!(dc.validity.count_ones(), 2);
    }

    #[test]
    fn codes_monotone_in_value() {
        let vals: Vec<f64> = (0..200).map(|i| (i as f64).sin() * 10.0).collect();
        let d = Discretizer::fit(&vals, BinStrategy::EqualFrequency, 8);
        let mut sorted = vals.clone();
        sorted.sort_by(f64::total_cmp);
        let codes: Vec<u32> = sorted.iter().map(|&v| d.code(v)).collect();
        assert!(codes.windows(2).all(|w| w[0] <= w[1]));
    }
}
