//! Mutual information and the pairwise dependency matrix.
//!
//! The paper measures the statistical dependency between columns with
//! mutual information "because it is very flexible: it copes with mixed
//! values and it is sensitive to non-linear relationships". Continuous
//! columns are discretized (equal-frequency by default), then
//! `I(X;Y) = H(X) + H(Y) − H(X,Y)` over the contingency table. Dependency
//! graphs use a normalized variant so edge weights are comparable across
//! column pairs with different cardinalities.

use blaeu_store::{uniform_sample, ColumnRead, Result, TableView};

use crate::binning::{discretize, BinRule, BinStrategy, DiscreteColumn};
use crate::chi2::chi2_test;
use crate::contingency::ContingencyTable;
use crate::correlation::{pearson, spearman};
use crate::entropy::{entropy_from_counts, joint_entropy};

/// Mutual information I(X;Y) in nats from a contingency table.
pub fn mutual_information(table: &ContingencyTable) -> f64 {
    let hx = entropy_from_counts(&table.x_marginals());
    let hy = entropy_from_counts(&table.y_marginals());
    let hxy = joint_entropy(table);
    (hx + hy - hxy).max(0.0)
}

/// How to normalize mutual information into `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MiNormalization {
    /// No normalization (raw nats).
    None,
    /// `I / min(H(X), H(Y))` — 1 when one variable determines the other.
    Min,
    /// `I / max(H(X), H(Y))` — stricter; 1 only for a bijection.
    Max,
    /// `I / sqrt(H(X)·H(Y))` — geometric mean (the common "NMI").
    Sqrt,
}

/// Normalized mutual information in `[0, 1]` (except [`MiNormalization::None`]).
///
/// Pairs where either variable has zero entropy (constant columns) score 0:
/// a constant carries no information about anything.
pub fn normalized_mutual_information(table: &ContingencyTable, norm: MiNormalization) -> f64 {
    let hx = entropy_from_counts(&table.x_marginals());
    let hy = entropy_from_counts(&table.y_marginals());
    let mi = mutual_information(table);
    let denom = match norm {
        MiNormalization::None => return mi,
        MiNormalization::Min => hx.min(hy),
        MiNormalization::Max => hx.max(hy),
        MiNormalization::Sqrt => (hx * hy).sqrt(),
    };
    if denom <= f64::EPSILON {
        0.0
    } else {
        (mi / denom).clamp(0.0, 1.0)
    }
}

/// Dependency measure for column pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependencyMeasure {
    /// Normalized mutual information (the paper's choice).
    Nmi,
    /// Absolute Pearson correlation (linear only; numeric columns only —
    /// categorical pairs fall back to NMI).
    PearsonAbs,
    /// Absolute Spearman rank correlation (monotone only; same fallback).
    SpearmanAbs,
}

/// Options for [`dependency_matrix`].
#[derive(Debug, Clone)]
pub struct DependencyOptions {
    /// Dependency measure (default NMI with sqrt normalization).
    pub measure: DependencyMeasure,
    /// NMI normalization (ignored for correlation measures).
    pub normalization: MiNormalization,
    /// Binning strategy for numeric columns.
    pub strategy: BinStrategy,
    /// Bin-count rule.
    pub rule: BinRule,
    /// Row-sample cap: tables larger than this are sampled down before
    /// measuring (the paper computes dependencies on samples for latency).
    pub sample: Option<usize>,
    /// Seed for the row sample.
    pub seed: u64,
    /// Worker threads for the pairwise sweep (0 = all available cores).
    pub threads: usize,
    /// When set, edges whose chi-squared independence test is NOT
    /// significant at this level are zeroed — spurious dependencies
    /// measured on small samples disappear from the graph.
    pub significance_alpha: Option<f64>,
}

impl Default for DependencyOptions {
    fn default() -> Self {
        DependencyOptions {
            measure: DependencyMeasure::Nmi,
            normalization: MiNormalization::Sqrt,
            strategy: BinStrategy::EqualFrequency,
            rule: BinRule::SqrtCapped,
            sample: Some(2000),
            seed: 7,
            threads: 0,
            significance_alpha: None,
        }
    }
}

/// Maximum column pairs per dependency-sweep shard: small enough that a
/// band of expensive pairs rebalances across workers, large enough to
/// amortize a claim per shard on wide tables.
const PAIR_SHARD: usize = 16;

/// Shard size for an `npairs`-pair sweep: pair-per-shard below
/// [`PAIR_SHARD_TARGET`] shards (a handful of columns must still fan out
/// across every core — each pair is a full contingency scan), growing to
/// at most [`PAIR_SHARD`] pairs per shard on wide tables. A pure function
/// of the pair count, keeping the matrix thread-count independent.
const PAIR_SHARD_TARGET: usize = 64;
fn pair_shard_size(npairs: usize) -> usize {
    npairs.div_ceil(PAIR_SHARD_TARGET).clamp(1, PAIR_SHARD)
}

/// Symmetric matrix of pairwise column dependencies in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct DependencyMatrix {
    names: Vec<String>,
    values: Vec<f64>, // row-major full matrix, diagonal = 1
}

impl DependencyMatrix {
    /// Column names, in matrix order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Dependency between columns `i` and `j`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.names.len() + j]
    }
}

/// One-time preparation for the pairwise sweep: per-column
/// discretizations and numeric views over the (possibly sampled) rows,
/// and the pair list. Preparing is a pure function of the view contents
/// and the options.
struct PairSweep {
    discs: Vec<DiscreteColumn>,
    numerics: Vec<Option<Vec<Option<f64>>>>,
    pairs: Vec<(usize, usize)>,
}

impl PairSweep {
    /// Prepares the sweep: validates names, samples rows once (a
    /// selection, not a copy), discretizes each column once and keeps
    /// numeric views for the correlation measures.
    fn prepare(view: &TableView, columns: &[&str], opts: &DependencyOptions) -> Result<Self> {
        let m = columns.len();
        for &c in columns {
            view.col_by_name(c)?;
        }
        let sampled: TableView = match opts.sample {
            Some(cap) if view.nrows() > cap => {
                let rows = uniform_sample(view.nrows(), cap, opts.seed);
                view.select(&rows)?
            }
            _ => view.clone(),
        };
        let mut discs = Vec::with_capacity(m);
        let mut numerics: Vec<Option<Vec<Option<f64>>>> = Vec::with_capacity(m);
        for &c in columns {
            let col = sampled.col_by_name(c)?;
            discs.push(discretize(&col, opts.strategy, opts.rule));
            numerics.push(if col.data_type().is_numeric() {
                Some(col.to_f64_vec())
            } else {
                None
            });
        }
        let pairs: Vec<(usize, usize)> = (0..m)
            .flat_map(|i| ((i + 1)..m).map(move |j| (i, j)))
            .collect();
        Ok(PairSweep {
            discs,
            numerics,
            pairs,
        })
    }
}

fn measure_pair(
    x: &DiscreteColumn,
    y: &DiscreteColumn,
    xn: Option<&[Option<f64>]>,
    yn: Option<&[Option<f64>]>,
    opts: &DependencyOptions,
) -> f64 {
    match opts.measure {
        DependencyMeasure::Nmi => {
            let ct = ContingencyTable::from_codes(x, y);
            if let Some(alpha) = opts.significance_alpha {
                if !chi2_test(&ct).significant(alpha) {
                    return 0.0;
                }
            }
            normalized_mutual_information(&ct, opts.normalization)
        }
        DependencyMeasure::PearsonAbs => match (xn, yn) {
            (Some(a), Some(b)) => pearson(a, b).unwrap_or(0.0).abs(),
            _ => {
                let ct = ContingencyTable::from_codes(x, y);
                normalized_mutual_information(&ct, opts.normalization)
            }
        },
        DependencyMeasure::SpearmanAbs => match (xn, yn) {
            (Some(a), Some(b)) => spearman(a, b).unwrap_or(0.0).abs(),
            _ => {
                let ct = ContingencyTable::from_codes(x, y);
                normalized_mutual_information(&ct, opts.normalization)
            }
        },
    }
}

/// Computes the pairwise dependency matrix over the named columns of a
/// view.
///
/// The sweep over the `m·(m−1)/2` pairs is parallelized with scoped threads;
/// discretization happens once per column. Sampling narrows the view (an
/// index re-map) instead of materializing a sub-table.
///
/// # Errors
/// Returns an error for unknown column names.
pub fn dependency_matrix(
    view: &TableView,
    columns: &[&str],
    opts: &DependencyOptions,
) -> Result<DependencyMatrix> {
    // The pairwise sweep is sharded over the pair list: each shard is one
    // steal-queue grain, so expensive pairs (high-cardinality contingency
    // tables) do not pin a worker while its siblings idle. Shards come
    // back in shard order — the flattened sequence is the pair order —
    // so the matrix is bit-identical for any parallelism level.
    let sweep = PairSweep::prepare(view, columns, opts)?;
    let npairs = sweep.pairs.len();
    let spec = blaeu_exec::ShardSpec::with_shard_size(npairs, pair_shard_size(npairs));
    let cells = blaeu_exec::par_shards(&spec, opts.threads, |_, range| -> Vec<f64> {
        sweep.pairs[range]
            .iter()
            .map(|&(i, j)| {
                measure_pair(
                    &sweep.discs[i],
                    &sweep.discs[j],
                    sweep.numerics[i].as_deref(),
                    sweep.numerics[j].as_deref(),
                    opts,
                )
            })
            .collect()
    });
    let m = columns.len();
    let mut values = vec![0.0f64; m * m];
    for i in 0..m {
        values[i * m + i] = 1.0;
    }
    for (&(i, j), v) in sweep.pairs.iter().zip(cells.into_iter().flatten()) {
        values[i * m + j] = v;
        values[j * m + i] = v;
    }
    Ok(DependencyMatrix {
        names: columns.iter().map(|&s| s.to_owned()).collect(),
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaeu_store::{Column, TableBuilder};

    fn dc(codes: Vec<Option<u32>>, cardinality: usize) -> DiscreteColumn {
        DiscreteColumn::from_options(codes, cardinality)
    }

    #[test]
    fn identical_variables_have_full_nmi() {
        let xs: Vec<Option<u32>> = (0..200).map(|i| Some(i % 4)).collect();
        let ct = ContingencyTable::from_codes(&dc(xs.clone(), 4), &dc(xs, 4));
        for norm in [
            MiNormalization::Min,
            MiNormalization::Max,
            MiNormalization::Sqrt,
        ] {
            let v = normalized_mutual_information(&ct, norm);
            assert!((v - 1.0).abs() < 1e-12, "norm {norm:?} gave {v}");
        }
        assert!((mutual_information(&ct) - 4f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn independent_variables_have_zero_mi() {
        let mut xc = Vec::new();
        let mut yc = Vec::new();
        for x in 0..4u32 {
            for y in 0..4u32 {
                for _ in 0..10 {
                    xc.push(Some(x));
                    yc.push(Some(y));
                }
            }
        }
        let ct = ContingencyTable::from_codes(&dc(xc, 4), &dc(yc, 4));
        assert!(mutual_information(&ct).abs() < 1e-12);
        assert!(normalized_mutual_information(&ct, MiNormalization::Sqrt) < 1e-12);
    }

    #[test]
    fn constant_column_scores_zero() {
        let xs: Vec<Option<u32>> = vec![Some(0); 50];
        let ys: Vec<Option<u32>> = (0..50).map(|i| Some(i % 2)).collect();
        let ct = ContingencyTable::from_codes(&dc(xs, 1), &dc(ys, 2));
        assert_eq!(
            normalized_mutual_information(&ct, MiNormalization::Sqrt),
            0.0
        );
    }

    fn toy_table(n: usize) -> TableView {
        // a ~ b (linear), c independent, d = a² (non-linear).
        let a: Vec<f64> = (0..n).map(|i| (i as f64 / n as f64) * 6.0 - 3.0).collect();
        let b: Vec<f64> = a.iter().map(|&v| 2.0 * v + 1.0).collect();
        let c: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % n) as f64).collect();
        let d: Vec<f64> = a.iter().map(|&v| v * v).collect();
        TableBuilder::new("toy")
            .column("a", Column::dense_f64(a))
            .unwrap()
            .column("b", Column::dense_f64(b))
            .unwrap()
            .column("c", Column::dense_f64(c))
            .unwrap()
            .column("d", Column::dense_f64(d))
            .unwrap()
            .build()
            .unwrap()
            .into()
    }

    #[test]
    fn dependency_matrix_finds_linear_dependency() {
        let t = toy_table(600);
        let dm = dependency_matrix(&t, &["a", "b", "c"], &DependencyOptions::default()).unwrap();
        assert_eq!(dm.len(), 3);
        assert!((dm.get(0, 0) - 1.0).abs() < 1e-12);
        let (ab, ac) = (dm.get(0, 1), dm.get(0, 2));
        assert!(ab > 0.8, "a~b dependency should be strong, got {ab}");
        assert!(ac < 0.35, "a~c dependency should be weak, got {ac}");
        assert_eq!(dm.get(0, 1), dm.get(1, 0), "symmetric");
    }

    #[test]
    fn nmi_detects_nonlinear_where_pearson_fails() {
        let t = toy_table(600);
        let nmi = dependency_matrix(&t, &["a", "d"], &DependencyOptions::default()).unwrap();
        let pea = dependency_matrix(
            &t,
            &["a", "d"],
            &DependencyOptions {
                measure: DependencyMeasure::PearsonAbs,
                ..DependencyOptions::default()
            },
        )
        .unwrap();
        let nmi_ad = nmi.get(0, 1);
        let pea_ad = pea.get(0, 1);
        assert!(
            nmi_ad > 0.5,
            "NMI should detect the quadratic dependency, got {nmi_ad}"
        );
        assert!(
            pea_ad < 0.2,
            "Pearson should miss the even function, got {pea_ad}"
        );
    }

    #[test]
    fn sampling_keeps_estimates_stable() {
        let t = toy_table(5000);
        let full = dependency_matrix(
            &t,
            &["a", "b"],
            &DependencyOptions {
                sample: None,
                ..DependencyOptions::default()
            },
        )
        .unwrap();
        let sampled = dependency_matrix(
            &t,
            &["a", "b"],
            &DependencyOptions {
                sample: Some(500),
                ..DependencyOptions::default()
            },
        )
        .unwrap();
        assert!(
            (full.get(0, 1) - sampled.get(0, 1)).abs() < 0.15,
            "sampled {} vs full {}",
            sampled.get(0, 1),
            full.get(0, 1)
        );
    }

    #[test]
    fn unknown_column_errors() {
        let t = toy_table(50);
        assert!(dependency_matrix(&t, &["a", "ghost"], &DependencyOptions::default()).is_err());
    }

    #[test]
    fn single_column_matrix() {
        let t = toy_table(50);
        let dm = dependency_matrix(&t, &["a"], &DependencyOptions::default()).unwrap();
        assert_eq!(dm.len(), 1);
        assert_eq!(dm.get(0, 0), 1.0);
    }

    #[test]
    fn significance_filter_prunes_noise_edges() {
        // Two independent columns on a small sample: raw NMI is a small
        // positive number (estimation noise); the chi-squared filter
        // zeroes it, while a genuinely dependent pair survives.
        let n = 120;
        let a: Vec<f64> = (0..n).map(|i| ((i * 7919 + 13) % 97) as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 104729 + 7) % 89) as f64).collect();
        let c: Vec<f64> = a.iter().map(|v| v * 2.0 + 1.0).collect();
        let t: TableView = TableBuilder::new("sig")
            .column("a", Column::dense_f64(a))
            .unwrap()
            .column("b", Column::dense_f64(b))
            .unwrap()
            .column("c", Column::dense_f64(c))
            .unwrap()
            .build()
            .unwrap()
            .into();
        let opts = DependencyOptions {
            significance_alpha: Some(0.01),
            ..DependencyOptions::default()
        };
        let filtered = dependency_matrix(&t, &["a", "b", "c"], &opts).unwrap();
        let raw = dependency_matrix(&t, &["a", "b", "c"], &DependencyOptions::default()).unwrap();
        assert!(raw.get(0, 1) > 0.0, "raw noise edge is nonzero");
        assert_eq!(filtered.get(0, 1), 0.0, "noise edge pruned");
        assert!(filtered.get(0, 2) > 0.5, "real edge survives");
    }

    #[test]
    fn dependency_matrix_bit_identical_across_thread_counts() {
        // The executor returns pair results in input order whatever the
        // chunking, so every cell must match the serial run bit-for-bit.
        let t = toy_table(600);
        let opts_for = |threads| DependencyOptions {
            threads,
            ..DependencyOptions::default()
        };
        let cols = ["a", "b", "c", "d"];
        let serial = dependency_matrix(&t, &cols, &opts_for(1)).unwrap();
        for threads in [2usize, 4, 8] {
            let parallel = dependency_matrix(&t, &cols, &opts_for(threads)).unwrap();
            for i in 0..cols.len() {
                for j in 0..cols.len() {
                    assert_eq!(
                        serial.get(i, j).to_bits(),
                        parallel.get(i, j).to_bits(),
                        "cell ({i},{j}) differs at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_categorical_numeric_pair() {
        // Categorical column that tracks sign(a) should have high NMI with a.
        let n = 400;
        let a: Vec<f64> = (0..n).map(|i| i as f64 - n as f64 / 2.0).collect();
        let lab: Vec<String> = a
            .iter()
            .map(|&v| {
                if v < 0.0 {
                    "neg".to_owned()
                } else {
                    "pos".to_owned()
                }
            })
            .collect();
        let t: TableView = TableBuilder::new("mix")
            .column("a", Column::dense_f64(a))
            .unwrap()
            .column(
                "sign",
                Column::from_strs(lab.iter().map(|s| Some(s.as_str()))),
            )
            .unwrap()
            .build()
            .unwrap()
            .into();
        let dm = dependency_matrix(&t, &["a", "sign"], &DependencyOptions::default()).unwrap();
        assert!(dm.get(0, 1) > 0.3, "got {}", dm.get(0, 1));
    }
}
