//! Histograms — the univariate visualizations of the *highlight* action.

use blaeu_store::{ColumnRead, DataType};

use crate::binning::{equal_width_over, include_finite, Discretizer};

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

/// The numeric bin layout settled by the histogram's phase-1 scan.
///
/// Every shard of one sketch carries the mode its phase-1 scan settled,
/// so merge asserts the headers agree bit-for-bit before adding counts.
#[derive(Debug, Clone, Copy)]
pub enum HistogramMode {
    /// No numeric observations: one empty `[0, 1)` bin.
    Empty,
    /// All observations equal: a single `[lo, hi]` bin.
    Flat {
        /// Minimum fold result.
        lo: f64,
        /// Maximum fold result.
        hi: f64,
    },
    /// Equal-width bins over `[lo, hi]`.
    Binned {
        /// Observed minimum.
        lo: f64,
        /// Observed maximum.
        hi: f64,
        /// Bin count after the discretizer trimmed degenerate edges.
        nbins: usize,
    },
}

impl HistogramMode {
    /// Number of count slots this layout produces.
    pub fn bin_count(&self) -> usize {
        match self {
            HistogramMode::Empty | HistogramMode::Flat { .. } => 1,
            HistogramMode::Binned { nbins, .. } => *nbins,
        }
    }

    fn same_layout(&self, other: &HistogramMode) -> bool {
        match (self, other) {
            (HistogramMode::Empty, HistogramMode::Empty) => true,
            (HistogramMode::Flat { lo: a, hi: b }, HistogramMode::Flat { lo: c, hi: d }) => {
                a.to_bits() == c.to_bits() && b.to_bits() == d.to_bits()
            }
            (
                HistogramMode::Binned {
                    lo: a,
                    hi: b,
                    nbins: n,
                },
                HistogramMode::Binned {
                    lo: c,
                    hi: d,
                    nbins: m,
                },
            ) => a.to_bits() == c.to_bits() && b.to_bits() == d.to_bits() && n == m,
            _ => false,
        }
    }
}

/// Phase-1 state of the histogram sketch: the bin layout plus, for
/// binned columns, the fitted discretizer that codes shard values.
#[derive(Debug, Clone)]
pub enum HistogramSketch {
    /// Numeric column: settled bin layout, discretizer present only in
    /// binned mode.
    Numeric {
        /// Agreed bin layout header.
        mode: HistogramMode,
        /// Value-to-bin coder, `Some` iff `mode` is `Binned`.
        disc: Option<Discretizer>,
    },
    /// Categorical column: shards count labels, no numeric phase.
    Categorical,
}

/// Runs the histogram's phase-1 scan over the full column, settling the
/// bin layout. Deterministic: the same column always yields the
/// identical sketch.
pub fn histogram_prepare<C: ColumnRead>(column: &C, bins: usize) -> HistogramSketch {
    let bins = bins.max(1);
    match column.data_type() {
        DataType::Float64 | DataType::Int64 => {
            // One pass, no gather: the header range folds `f64::min`/`max`
            // (NaN skipped, ±inf kept) while the discretizer's range is
            // the finite `total_cmp` one equal-width fitting uses.
            let mut seen = false;
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            let mut finite = None;
            for v in (0..column.len()).filter_map(|i| column.numeric_at(i)) {
                seen = true;
                lo = f64::min(lo, v);
                hi = f64::max(hi, v);
                finite = include_finite(finite, v);
            }
            if !seen {
                return HistogramSketch::Numeric {
                    mode: HistogramMode::Empty,
                    disc: None,
                };
            }
            if lo == hi {
                return HistogramSketch::Numeric {
                    mode: HistogramMode::Flat { lo, hi },
                    disc: None,
                };
            }
            let disc = equal_width_over(finite, bins);
            let nbins = disc.nbins();
            HistogramSketch::Numeric {
                mode: HistogramMode::Binned { lo, hi, nbins },
                disc: Some(disc),
            }
        }
        DataType::Categorical | DataType::Bool => HistogramSketch::Categorical,
    }
}

/// A mergeable partial of a histogram sketch over a contiguous row
/// shard: integer bin (or label) counts plus the shard's NULL count.
/// Integer adds are exact under any association, so merged counts are
/// bit-identical to the sequential tally whatever the shard grouping.
#[derive(Debug, Clone)]
pub enum HistogramPartial {
    /// Per-bin counts under an agreed bin layout.
    Numeric {
        /// Bin layout header; must agree across merged partials.
        mode: HistogramMode,
        /// Count per bin, length `mode.bin_count()`.
        counts: Vec<usize>,
        /// NULL rows in the shard.
        nulls: usize,
    },
    /// Per-label counts.
    Categorical {
        /// Label observation counts.
        counts: std::collections::BTreeMap<String, usize>,
        /// NULL rows in the shard.
        nulls: usize,
    },
}

impl HistogramPartial {
    /// The identity partial for a sketch — what a worker returns for an
    /// empty shard range.
    pub fn empty(sketch: &HistogramSketch) -> HistogramPartial {
        match sketch {
            HistogramSketch::Numeric { mode, .. } => HistogramPartial::Numeric {
                mode: *mode,
                counts: vec![0; mode.bin_count()],
                nulls: 0,
            },
            HistogramSketch::Categorical => HistogramPartial::Categorical {
                counts: std::collections::BTreeMap::new(),
                nulls: 0,
            },
        }
    }

    /// True when the two partials can merge: same kind, and for numeric
    /// partials an agreed bin layout with matching count vectors. The
    /// wire boundary checks this before [`HistogramPartial::merge`] so a
    /// divergent (or hostile) remote partial surfaces as a typed error,
    /// not a panic.
    pub fn compatible(&self, other: &HistogramPartial) -> bool {
        match (self, other) {
            (
                HistogramPartial::Numeric { mode, counts, .. },
                HistogramPartial::Numeric {
                    mode: om,
                    counts: oc,
                    ..
                },
            ) => mode.same_layout(om) && counts.len() == oc.len(),
            (HistogramPartial::Categorical { .. }, HistogramPartial::Categorical { .. }) => true,
            _ => false,
        }
    }

    /// Merges the next shard range's partial into this one. Counts add
    /// elementwise; shard-order associative and in fact fully
    /// commutative (integer adds).
    ///
    /// # Panics
    /// Panics if the partials are of different kinds or their bin
    /// layouts disagree.
    pub fn merge(&mut self, other: HistogramPartial) {
        match (self, other) {
            (
                HistogramPartial::Numeric {
                    mode,
                    counts,
                    nulls,
                },
                HistogramPartial::Numeric {
                    mode: om,
                    counts: oc,
                    nulls: on,
                },
            ) => {
                assert!(
                    mode.same_layout(&om),
                    "histogram partials disagree on bin layout: {mode:?} vs {om:?}"
                );
                for (c, o) in counts.iter_mut().zip(oc) {
                    *c += o;
                }
                *nulls += on;
            }
            (
                HistogramPartial::Categorical { counts, nulls },
                HistogramPartial::Categorical {
                    counts: oc,
                    nulls: on,
                },
            ) => {
                for (label, c) in oc {
                    *counts.entry(label).or_insert(0) += c;
                }
                *nulls += on;
            }
            _ => panic!("cannot merge histogram partials of different kinds"),
        }
    }
}

/// Builds the histogram partial for one contiguous row range of a
/// column — the unit of work a worker executes per canonical shard.
pub fn histogram_shard<C: ColumnRead>(
    column: &C,
    sketch: &HistogramSketch,
    rows: std::ops::Range<usize>,
) -> HistogramPartial {
    let mut partial = HistogramPartial::empty(sketch);
    match (&mut partial, sketch) {
        (
            HistogramPartial::Numeric { counts, nulls, .. },
            HistogramSketch::Numeric { mode, disc },
        ) => {
            for i in rows {
                match column.numeric_at(i) {
                    None => *nulls += 1,
                    Some(v) => match mode {
                        HistogramMode::Empty => unreachable!("empty mode has no observations"),
                        HistogramMode::Flat { .. } => counts[0] += 1,
                        HistogramMode::Binned { .. } => {
                            let disc = disc.as_ref().expect("binned mode carries a discretizer");
                            counts[disc.code(v) as usize] += 1;
                        }
                    },
                }
            }
        }
        (HistogramPartial::Categorical { counts, nulls }, HistogramSketch::Categorical) => {
            for i in rows {
                let v = column.get(i);
                if v.is_null() {
                    *nulls += 1;
                } else {
                    *counts.entry(v.to_string()).or_insert(0) += 1;
                }
            }
        }
        _ => unreachable!("partial built from the same sketch"),
    }
    partial
}

/// Finalizes a fully merged histogram partial. Needs no column data
/// (edges recompute from the layout header).
pub fn finalize_histogram(partial: HistogramPartial, bins: usize) -> Histogram {
    let bins = bins.max(1);
    match partial {
        HistogramPartial::Numeric {
            mode,
            counts,
            nulls,
        } => match mode {
            HistogramMode::Empty => Histogram::Numeric {
                edges: vec![0.0, 1.0],
                counts,
                nulls,
            },
            HistogramMode::Flat { lo, hi } => Histogram::Numeric {
                edges: vec![lo, hi],
                counts,
                nulls,
            },
            HistogramMode::Binned { lo, hi, nbins } => {
                let width = (hi - lo) / nbins as f64;
                let edges: Vec<f64> = (0..=nbins).map(|i| lo + width * i as f64).collect();
                Histogram::Numeric {
                    edges,
                    counts,
                    nulls,
                }
            }
        },
        HistogramPartial::Categorical { counts, nulls } => {
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

/// Builds a histogram for a column (owned or view-selected — any
/// [`ColumnRead`]). Numeric columns get `bins` equal-width bins over their
/// observed range; categorical columns get up to `bins` bars (most
/// frequent first, remainder folded into `"<other>"`).
///
/// Routed through the histogram sketch: phase 1 settles the bin layout,
/// one shard spanning every row tallies counts, and the partial
/// finalizes. Counts are integer adds, so this equals the merge of the
/// canonical row shards a sharded sketch performs, bit for bit.
pub fn histogram<C: ColumnRead>(column: &C, bins: usize) -> Histogram {
    let sketch = histogram_prepare(column, bins);
    finalize_histogram(histogram_shard(column, &sketch, 0..column.len()), bins)
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
