//! Histograms — the univariate visualizations of the *highlight* action.

use blaeu_store::{ColumnRead, DataType};

use crate::binning::{equal_width_over, include_finite};
use crate::describe::label_counts;

/// A univariate histogram over one column.
#[derive(Debug, Clone, PartialEq)]
pub enum Histogram {
    /// Numeric histogram with explicit bin edges.
    Numeric {
        /// Bin boundaries, length `bins + 1`, ascending.
        edges: Vec<f64>,
        /// Count per bin, length `bins`.
        counts: Vec<usize>,
        /// Number of NULL rows.
        nulls: usize,
    },
    /// Categorical bar chart.
    Categorical {
        /// Category label and count, most frequent first.
        bars: Vec<(String, usize)>,
        /// Number of NULL rows.
        nulls: usize,
    },
}

impl Histogram {
    /// Total non-NULL observations.
    pub fn total(&self) -> usize {
        match self {
            Histogram::Numeric { counts, .. } => counts.iter().sum(),
            Histogram::Categorical { bars, .. } => bars.iter().map(|b| b.1).sum(),
        }
    }

    /// Renders the histogram as terminal text with unicode bars.
    pub fn render(&self, width: usize) -> String {
        let width = width.max(8);
        let mut out = String::new();
        match self {
            Histogram::Numeric { edges, counts, .. } => {
                let max = counts.iter().copied().max().unwrap_or(0).max(1);
                for (i, &c) in counts.iter().enumerate() {
                    let bar = "█".repeat(c * width / max);
                    out.push_str(&format!(
                        "[{:>9.3}, {:>9.3}) {:>6} {}\n",
                        edges[i],
                        edges[i + 1],
                        c,
                        bar
                    ));
                }
            }
            Histogram::Categorical { bars, .. } => {
                let max = bars.iter().map(|b| b.1).max().unwrap_or(0).max(1);
                for (label, c) in bars {
                    let bar = "█".repeat(c * width / max);
                    out.push_str(&format!("{label:>20} {c:>6} {bar}\n"));
                }
            }
        }
        out
    }
}

/// Builds a histogram for a column (owned or view-selected — any
/// [`ColumnRead`]). Numeric columns get `bins` equal-width bins over their
/// observed range; categorical columns get up to `bins` bars (most
/// frequent first, remainder folded into `"<other>"`).
pub fn histogram<C: ColumnRead>(column: &C, bins: usize) -> Histogram {
    let bins = bins.max(1);
    match column.data_type() {
        DataType::Float64 | DataType::Int64 => numeric_histogram(column, bins),
        DataType::Categorical | DataType::Bool => {
            let (counts, nulls) = label_counts(column);
            let mut bars: Vec<(String, usize)> = counts.into_iter().collect();
            bars.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            if bars.len() > bins {
                let rest: usize = bars[bins..].iter().map(|b| b.1).sum();
                bars.truncate(bins);
                bars.push(("<other>".to_owned(), rest));
            }
            Histogram::Categorical { bars, nulls }
        }
    }
}

/// Two passes over the numeric values: the first settles the bin
/// layout, the second counts. No values are gathered.
fn numeric_histogram<C: ColumnRead>(column: &C, bins: usize) -> Histogram {
    let values = || (0..column.len()).filter_map(|i| column.numeric_at(i));
    // The edge range folds `f64::min`/`max` (NaN skipped, ±inf kept)
    // while the discretizer's range is the finite `total_cmp` one
    // equal-width fitting uses.
    let mut seen = 0usize;
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut finite = None;
    for v in values() {
        seen += 1;
        lo = f64::min(lo, v);
        hi = f64::max(hi, v);
        finite = include_finite(finite, v);
    }
    let nulls = column.len() - seen;
    if seen == 0 {
        // No numeric observations: one empty `[0, 1)` bin.
        return Histogram::Numeric {
            edges: vec![0.0, 1.0],
            counts: vec![0],
            nulls,
        };
    }
    if lo == hi {
        // All observations equal: a single `[lo, hi]` bin.
        return Histogram::Numeric {
            edges: vec![lo, hi],
            counts: vec![seen],
            nulls,
        };
    }
    let disc = equal_width_over(finite, bins);
    let nbins = disc.nbins();
    let mut counts = vec![0; nbins];
    for v in values() {
        counts[disc.code(v) as usize] += 1;
    }
    let width = (hi - lo) / nbins as f64;
    let edges: Vec<f64> = (0..=nbins).map(|i| lo + width * i as f64).collect();
    Histogram::Numeric {
        edges,
        counts,
        nulls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaeu_store::Column;

    #[test]
    fn numeric_histogram_counts_sum() {
        let col = Column::from_f64s((0..100).map(|i| Some(i as f64)).chain([None, None]));
        let h = histogram(&col, 10);
        let Histogram::Numeric {
            edges,
            counts,
            nulls,
        } = &h
        else {
            panic!("expected numeric");
        };
        assert_eq!(edges.len(), counts.len() + 1);
        assert_eq!(h.total(), 100);
        assert_eq!(*nulls, 2);
        // Equal-width over uniform data: every bin holds 10.
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn constant_column_single_bin() {
        let col = Column::from_f64s([Some(3.0), Some(3.0)]);
        let Histogram::Numeric { counts, .. } = histogram(&col, 5) else {
            panic!("expected numeric");
        };
        assert_eq!(counts, vec![2]);
    }

    #[test]
    fn empty_numeric_column() {
        let col = Column::from_f64s([None, None]);
        let h = histogram(&col, 4);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn categorical_histogram_folds_tail() {
        let labels = ["a", "a", "a", "b", "b", "c", "d", "e"];
        let col = Column::from_strs(labels.iter().map(|&s| Some(s)));
        let Histogram::Categorical { bars, .. } = histogram(&col, 2) else {
            panic!("expected categorical");
        };
        assert_eq!(bars[0], ("a".to_owned(), 3));
        assert_eq!(bars[1], ("b".to_owned(), 2));
        assert_eq!(bars[2], ("<other>".to_owned(), 3));
    }

    #[test]
    fn render_produces_bars() {
        let col = Column::from_f64s((0..50).map(|i| Some(i as f64)));
        let text = histogram(&col, 5).render(20);
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains('█'));

        let cat = Column::from_strs([Some("x"), Some("x"), Some("y")]);
        let text = histogram(&cat, 5).render(10);
        assert!(text.contains('x'));
        assert!(text.contains("██"));
    }
}
