//! Column summaries — the statistics behind Blaeu's *highlight* action.
//!
//! Highlighting a column shows its distribution inside each map region:
//! numeric columns get moments and quantiles, categorical columns get their
//! top categories.

use std::collections::BTreeMap;

use blaeu_store::{ColumnRead, DataType};

/// Summary of a numeric column (over non-NULL rows).
#[derive(Debug, Clone, PartialEq)]
pub struct NumericSummary {
    /// Number of non-NULL observations.
    pub count: usize,
    /// Number of NULL rows.
    pub nulls: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std: f64,
    /// Minimum value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum value.
    pub max: f64,
}

/// Summary of a categorical (or boolean) column.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoricalSummary {
    /// Number of non-NULL observations.
    pub count: usize,
    /// Number of NULL rows.
    pub nulls: usize,
    /// Number of distinct categories observed.
    pub distinct: usize,
    /// Categories with counts, most frequent first (capped by the caller).
    pub top: Vec<(String, usize)>,
}

/// Summary of any column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSummary {
    /// Numeric column summary.
    Numeric(NumericSummary),
    /// Categorical/boolean column summary.
    Categorical(CategoricalSummary),
}

impl ColumnSummary {
    /// Non-NULL observation count, whichever the variant.
    pub fn count(&self) -> usize {
        match self {
            ColumnSummary::Numeric(s) => s.count,
            ColumnSummary::Categorical(s) => s.count,
        }
    }
}

/// Linear-interpolation quantile of a **sorted** slice, `q ∈ [0, 1]`.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Slices shorter than this sort by comparison in [`sort_total`]; the
/// radix passes' fixed cost only pays off above it. On a 2-core x86-64
/// host, uniformly random mantissas break even near here; columns whose
/// high or low bytes repeat (skipped digits) win from half of it.
pub const SORT_TOTAL_RADIX_MIN: usize = 512;

/// Sorts `values` ascending under [`f64::total_cmp`].
///
/// An LSD radix sort over the order-preserving `u64` key of each value:
/// one counting pass fills the histograms of all eight byte digits, and
/// digits whose values all share one bucket are skipped. Below
/// [`SORT_TOTAL_RADIX_MIN`] it is `sort_by(f64::total_cmp)`. Values that
/// compare `Equal` under `total_cmp` have identical bits, so the result
/// is bit-identical to any correct sort.
pub fn sort_total(values: &mut [f64]) {
    let n = values.len();
    if n < SORT_TOTAL_RADIX_MIN {
        values.sort_by(f64::total_cmp);
        return;
    }
    // Negative values flip every bit, the rest only the sign bit: the
    // keys then order as unsigned integers exactly as `total_cmp` does.
    const SIGN: u64 = 1 << 63;
    let mut counts = [[0usize; 256]; 8];
    let mut keys = Vec::with_capacity(n);
    for v in values.iter() {
        let b = v.to_bits();
        let k = if b & SIGN != 0 { !b } else { b | SIGN };
        for (digit, c) in counts.iter_mut().enumerate() {
            c[(k >> (8 * digit)) as u8 as usize] += 1;
        }
        keys.push(k);
    }
    let mut scratch = vec![0u64; n];
    for (digit, c) in counts.iter().enumerate() {
        if c.contains(&n) {
            continue;
        }
        let mut offsets = [0usize; 256];
        let mut sum = 0;
        for (o, &count) in offsets.iter_mut().zip(c) {
            *o = sum;
            sum += count;
        }
        for &k in &keys {
            let bucket = (k >> (8 * digit)) as u8 as usize;
            scratch[offsets[bucket]] = k;
            offsets[bucket] += 1;
        }
        std::mem::swap(&mut keys, &mut scratch);
    }
    for (v, k) in values.iter_mut().zip(keys) {
        *v = f64::from_bits(if k & SIGN != 0 { k & !SIGN } else { !k });
    }
}

/// Per-label observation counts and the NULL count of a categorical (or
/// boolean) column.
pub(crate) fn label_counts<C: ColumnRead>(column: &C) -> (BTreeMap<String, usize>, usize) {
    let mut counts = BTreeMap::new();
    let mut nulls = 0usize;
    for i in 0..column.len() {
        let v = column.get(i);
        if v.is_null() {
            nulls += 1;
        } else {
            *counts.entry(v.to_string()).or_insert(0) += 1;
        }
    }
    (counts, nulls)
}

/// Summarizes a column (owned or view-selected — any [`ColumnRead`]).
/// `top_k` caps the categorical top-list.
pub fn describe<C: ColumnRead>(column: &C, top_k: usize) -> ColumnSummary {
    let rows = column.len();
    match column.data_type() {
        DataType::Float64 | DataType::Int64 => {
            let mut values = Vec::with_capacity(rows);
            values.extend((0..rows).filter_map(|i| column.numeric_at(i)));
            let nulls = rows - values.len();
            if values.is_empty() {
                return ColumnSummary::Numeric(NumericSummary {
                    count: 0,
                    nulls,
                    mean: f64::NAN,
                    std: f64::NAN,
                    min: f64::NAN,
                    q1: f64::NAN,
                    median: f64::NAN,
                    q3: f64::NAN,
                    max: f64::NAN,
                });
            }
            sort_total(&mut values);
            let n = values.len();
            let mean = values.iter().sum::<f64>() / n as f64;
            let std = if n > 1 {
                (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
            } else {
                0.0
            };
            ColumnSummary::Numeric(NumericSummary {
                count: n,
                nulls,
                mean,
                std,
                min: values[0],
                q1: quantile_sorted(&values, 0.25),
                median: quantile_sorted(&values, 0.5),
                q3: quantile_sorted(&values, 0.75),
                max: values[n - 1],
            })
        }
        DataType::Categorical | DataType::Bool => {
            let (counts, nulls) = label_counts(column);
            let count = counts.values().sum();
            let distinct = counts.len();
            let mut top: Vec<(String, usize)> = counts.into_iter().collect();
            // Order by count descending, then label for determinism.
            top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            top.truncate(top_k);
            ColumnSummary::Categorical(CategoricalSummary {
                count,
                nulls,
                distinct,
                top,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaeu_store::Column;

    #[test]
    fn numeric_summary_basic() {
        let col = Column::from_f64s([Some(1.0), Some(2.0), Some(3.0), Some(4.0), None]);
        let ColumnSummary::Numeric(s) = describe(&col, 5) else {
            panic!("expected numeric");
        };
        assert_eq!(s.count, 4);
        assert_eq!(s.nulls, 1);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((s.q1 - 1.75).abs() < 1e-12);
        assert!((s.q3 - 3.25).abs() < 1e-12);
    }

    #[test]
    fn all_null_numeric() {
        let col = Column::from_f64s([None, None]);
        let ColumnSummary::Numeric(s) = describe(&col, 5) else {
            panic!("expected numeric");
        };
        assert_eq!(s.count, 0);
        assert_eq!(s.nulls, 2);
        assert!(s.mean.is_nan());
    }

    #[test]
    fn single_value_numeric() {
        let col = Column::from_f64s([Some(7.0)]);
        let ColumnSummary::Numeric(s) = describe(&col, 5) else {
            panic!("expected numeric");
        };
        assert_eq!(s.std, 0.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.q1, 7.0);
    }

    #[test]
    fn categorical_top_sorted() {
        let col = Column::from_strs([
            Some("b"),
            Some("a"),
            Some("a"),
            Some("a"),
            Some("b"),
            Some("c"),
            None,
        ]);
        let ColumnSummary::Categorical(s) = describe(&col, 2) else {
            panic!("expected categorical");
        };
        assert_eq!(s.count, 6);
        assert_eq!(s.nulls, 1);
        assert_eq!(s.distinct, 3);
        assert_eq!(s.top, vec![("a".to_owned(), 3), ("b".to_owned(), 2)]);
    }

    #[test]
    fn categorical_ties_break_by_label() {
        let col = Column::from_strs([Some("z"), Some("a")]);
        let ColumnSummary::Categorical(s) = describe(&col, 5) else {
            panic!("expected categorical");
        };
        assert_eq!(s.top[0].0, "a");
        assert_eq!(s.top[1].0, "z");
    }

    #[test]
    fn bool_summary_is_categorical() {
        let col = Column::from_bools([Some(true), Some(true), Some(false)]);
        let ColumnSummary::Categorical(s) = describe(&col, 5) else {
            panic!("expected categorical");
        };
        assert_eq!(s.top[0], ("true".to_owned(), 2));
        assert_eq!(describe(&col, 5).count(), 3);
    }

    #[test]
    fn quantile_interpolation() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 40.0);
        assert!((quantile_sorted(&sorted, 0.5) - 25.0).abs() < 1e-12);
        assert!(quantile_sorted(&[], 0.5).is_nan());
        assert_eq!(quantile_sorted(&sorted, -3.0), 10.0, "clamped");
    }

    #[test]
    fn int_columns_summarized_numerically() {
        let col = Column::from_i64s([Some(1), Some(5), None]);
        assert!(matches!(describe(&col, 5), ColumnSummary::Numeric(_)));
    }
}
