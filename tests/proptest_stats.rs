//! Property-based tests for the statistics substrate.

use proptest::prelude::*;

use blaeu::core::{build_map, DataMap, MapperConfig};
use blaeu::stats::{
    dependency_matrix, describe, discretize, entropy, entropy_from_counts, histogram,
    joint_entropy, mutual_information, normalized_mutual_information, pearson, ranks, sort_total,
    spearman, BinRule, BinStrategy, ColumnSummary, ContingencyTable, DependencyOptions,
    Discretizer, Histogram, MiNormalization, SORT_TOTAL_RADIX_MIN,
};
use blaeu::store::generate::{planted, PlantedConfig};
use blaeu::store::{Column, TableBuilder};

/// Values that stress bit-level ordering: NaNs of both signs with
/// several payloads, signed zeros, infinities, subnormals, a few heavily
/// repeated small integers, and arbitrary bit patterns.
fn awkward_f64() -> impl Strategy<Value = f64> {
    const SPECIAL: [f64; 14] = [
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff0_0000_0000_0abc),
        f64::from_bits(0x7fff_ffff_ffff_ffff),
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE / 4.0,
        f64::MAX,
        f64::MIN,
    ];
    (0usize..20, any::<u64>(), -1e3f64..1e3).prop_map(|(kind, raw, x)| match kind {
        0..=13 => SPECIAL[kind],
        14..=16 => (raw % 4) as f64,
        17 | 18 => f64::from_bits(raw),
        _ => x,
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The equal-width edges as they were fitted before the fit stopped
/// sorting: gather the finite values, sort them, bin `[first, last]`.
fn gather_sort_edges(values: &[f64], nbins: usize) -> Vec<f64> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() || sorted[0] == sorted[sorted.len() - 1] {
        return Vec::new();
    }
    let nbins = nbins.max(2);
    let (lo, hi) = (sorted[0], sorted[sorted.len() - 1]);
    let width = (hi - lo) / nbins as f64;
    (1..nbins).map(|b| lo + width * b as f64).collect()
}

/// The numeric histogram as it was built when it gathered the column:
/// edge bits, counts and NULLs. The edges encode the bin layout (empty,
/// flat or equal-width over `[lo, hi]`).
fn gather_sort_histogram(cells: &[Option<f64>], bins: usize) -> (Vec<u64>, Vec<usize>, usize) {
    let bins = bins.max(1);
    let vals: Vec<f64> = cells.iter().flatten().copied().collect();
    let nulls = cells.len() - vals.len();
    if vals.is_empty() {
        return (bits(&[0.0, 1.0]), vec![0], nulls);
    }
    let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if lo == hi {
        return (bits(&[lo, hi]), vec![vals.len()], nulls);
    }
    let disc_edges = gather_sort_edges(&vals, bins);
    let nbins = disc_edges.len() + 1;
    let mut counts = vec![0; nbins];
    for v in &vals {
        counts[disc_edges.partition_point(|&e| e <= *v)] += 1;
    }
    let width = (hi - lo) / nbins as f64;
    let edges: Vec<f64> = (0..=nbins).map(|i| lo + width * i as f64).collect();
    (bits(&edges), counts, nulls)
}

fn numeric_parts(h: Histogram) -> (Vec<u64>, Vec<usize>, usize) {
    match h {
        Histogram::Numeric {
            edges,
            counts,
            nulls,
        } => (bits(&edges), counts, nulls),
        Histogram::Categorical { .. } => panic!("numeric column gave a bar chart"),
    }
}

/// Checks `first_rows_of(id, n)` against `rows_of(id)` truncated to `n`
/// for every region and every interesting `n`.
fn check_first_rows(map: &DataMap) -> Result<(), TestCaseError> {
    for region in map.regions() {
        let all = map.rows_of(region.id).unwrap();
        for n in [0, 1, 5, all.len(), all.len() + 3] {
            let want: Vec<u32> = all.iter().copied().take(n).collect();
            prop_assert_eq!(map.first_rows_of(region.id, n).unwrap(), want);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn entropy_nonnegative_and_bounded(counts in prop::collection::vec(0u64..500, 1..24)) {
        let h = entropy_from_counts(&counts);
        prop_assert!(h >= 0.0);
        let support = counts.iter().filter(|&&c| c > 0).count();
        if support > 0 {
            prop_assert!(h <= (support as f64).ln() + 1e-9, "H {h} > ln support");
        }
    }

    #[test]
    fn mi_bounded_by_marginal_entropies(
        xs in prop::collection::vec(0u32..5, 4..200),
        ys in prop::collection::vec(0u32..4, 4..200),
    ) {
        let n = xs.len().min(ys.len());
        let x = blaeu::stats::DiscreteColumn::from_options(
            xs[..n].iter().map(|&c| Some(c)), 5);
        let y = blaeu::stats::DiscreteColumn::from_options(
            ys[..n].iter().map(|&c| Some(c)), 4);
        let ct = ContingencyTable::from_codes(&x, &y);
        let mi = mutual_information(&ct);
        let hx = entropy(&x);
        let hy = entropy(&y);
        prop_assert!(mi >= -1e-12);
        prop_assert!(mi <= hx.min(hy) + 1e-9, "MI {mi} > min(H) {}", hx.min(hy));
        // Normalizations stay in [0, 1].
        for norm in [MiNormalization::Min, MiNormalization::Max, MiNormalization::Sqrt] {
            let v = normalized_mutual_information(&ct, norm);
            prop_assert!((0.0..=1.0).contains(&v));
        }
        // Joint entropy bounds: max(Hx, Hy) <= Hxy <= Hx + Hy.
        let hxy = joint_entropy(&ct);
        prop_assert!(hxy + 1e-9 >= hx.max(hy));
        prop_assert!(hxy <= hx + hy + 1e-9);
    }

    #[test]
    fn correlations_bounded_and_self_correlated(
        vals in prop::collection::vec(-1e4f64..1e4, 3..120),
    ) {
        let x: Vec<Option<f64>> = vals.iter().map(|&v| Some(v)).collect();
        if let Some(p) = pearson(&x, &x) {
            prop_assert!((p - 1.0).abs() < 1e-9, "self-pearson {p}");
        }
        if let Some(s) = spearman(&x, &x) {
            prop_assert!((s - 1.0).abs() < 1e-9, "self-spearman {s}");
        }
        // Against reversed values: symmetric bounds.
        let y: Vec<Option<f64>> = vals.iter().rev().map(|&v| Some(v)).collect();
        if let Some(p) = pearson(&x, &y) {
            prop_assert!((-1.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn ranks_are_a_permutation_mean(vals in prop::collection::vec(-100.0f64..100.0, 1..80)) {
        let r = ranks(&vals);
        prop_assert_eq!(r.len(), vals.len());
        // Mean rank is (n+1)/2 regardless of ties.
        let mean = r.iter().sum::<f64>() / r.len() as f64;
        prop_assert!((mean - (r.len() as f64 + 1.0) / 2.0).abs() < 1e-9);
        // Monotone: larger value ⇒ rank not smaller.
        for i in 0..vals.len() {
            for j in 0..vals.len() {
                if vals[i] < vals[j] {
                    prop_assert!(r[i] < r[j] + 1e-12);
                }
            }
        }
    }

    #[test]
    fn discretize_covers_all_valid_rows(
        vals in prop::collection::vec(prop::option::of(-1e3f64..1e3), 1..200),
        bins in 2usize..12,
    ) {
        let col = Column::from_f64s(vals.iter().copied());
        let dc = discretize(&col, BinStrategy::EqualFrequency, BinRule::Fixed(bins));
        prop_assert_eq!(dc.len(), vals.len());
        for (i, v) in vals.iter().enumerate() {
            let code = dc.get(i);
            prop_assert_eq!(code.is_some(), v.is_some());
            if let Some(c) = code {
                prop_assert!((c as usize) < dc.cardinality);
            }
        }
    }

    #[test]
    fn describe_consistent_with_data(
        vals in prop::collection::vec(prop::option::of(-1e3f64..1e3), 1..150),
    ) {
        let col = Column::from_f64s(vals.iter().copied());
        let ColumnSummary::Numeric(s) = describe(&col, 5) else {
            return Err(TestCaseError::fail("expected numeric"));
        };
        let present: Vec<f64> = vals.iter().flatten().copied().collect();
        prop_assert_eq!(s.count, present.len());
        prop_assert_eq!(s.nulls, vals.len() - present.len());
        if !present.is_empty() {
            let min = present.iter().copied().fold(f64::INFINITY, f64::min);
            let max = present.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(s.min, min);
            prop_assert_eq!(s.max, max);
            prop_assert!(s.min <= s.q1 && s.q1 <= s.median);
            prop_assert!(s.median <= s.q3 && s.q3 <= s.max);
            prop_assert!(s.std >= 0.0);
        }
    }

    #[test]
    fn histogram_counts_total(
        vals in prop::collection::vec(prop::option::of(-500.0f64..500.0), 1..150),
        bins in 1usize..12,
    ) {
        let col = Column::from_f64s(vals.iter().copied());
        let h = histogram(&col, bins);
        let present = vals.iter().flatten().count();
        prop_assert_eq!(h.total(), present);
        if let Histogram::Numeric { edges, counts, nulls } = &h {
            prop_assert_eq!(edges.len(), counts.len() + 1);
            prop_assert_eq!(*nulls, vals.len() - present);
            prop_assert!(edges.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn dependency_matrix_properties(
        seedcol in prop::collection::vec(-100.0f64..100.0, 30..120),
    ) {
        // Three columns: y = 2x (dependent), z arbitrary-but-fixed.
        let x = seedcol.clone();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        let z: Vec<f64> = x.iter().enumerate().map(|(i, _)| ((i * 37) % 17) as f64).collect();
        let t = TableBuilder::new("p")
            .column("x", Column::dense_f64(x))
            .unwrap()
            .column("y", Column::dense_f64(y))
            .unwrap()
            .column("z", Column::dense_f64(z))
            .unwrap()
            .build()
            .unwrap();
        let dm =
            dependency_matrix(&t.into(), &["x", "y", "z"], &DependencyOptions::default()).unwrap();
        for i in 0..3 {
            prop_assert!((dm.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..3 {
                let v = dm.get(i, j);
                prop_assert!((0.0..=1.0).contains(&v));
                prop_assert!((v - dm.get(j, i)).abs() < 1e-12);
            }
        }
        // x~y at least as dependent as x~z (y is a function of x).
        prop_assert!(dm.get(0, 1) + 1e-9 >= dm.get(0, 2));
    }

    #[test]
    fn sort_total_matches_comparison_sort_bitwise(
        values in prop::collection::vec(awkward_f64(), 0..3 * SORT_TOTAL_RADIX_MIN),
    ) {
        let mut want = values.clone();
        want.sort_by(f64::total_cmp);
        let mut got = values;
        sort_total(&mut got);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn sort_total_matches_on_both_sides_of_the_cutoff(
        pool in prop::collection::vec(awkward_f64(), 1..64),
        picks in prop::collection::vec(any::<usize>(), SORT_TOTAL_RADIX_MIN + 1..SORT_TOTAL_RADIX_MIN + 2),
    ) {
        // Few distinct values, so ties are heavy on both paths.
        for len in [0, 1, SORT_TOTAL_RADIX_MIN - 1, SORT_TOTAL_RADIX_MIN, SORT_TOTAL_RADIX_MIN + 1] {
            let values: Vec<f64> = picks[..len].iter().map(|i| pool[i % pool.len()]).collect();
            let mut want = values.clone();
            want.sort_by(f64::total_cmp);
            let mut got = values;
            sort_total(&mut got);
            prop_assert_eq!(bits(&got), bits(&want), "len {}", len);
        }
    }

    #[test]
    fn equal_width_fit_matches_gather_and_sort(
        values in prop::collection::vec(awkward_f64(), 0..300),
        nbins in 0usize..12,
    ) {
        let disc = Discretizer::fit(&values, BinStrategy::EqualWidth, nbins);
        prop_assert_eq!(bits(disc.edges()), bits(&gather_sort_edges(&values, nbins)));
        let constant = vec![values.first().copied().unwrap_or(-0.0); values.len()];
        let disc = Discretizer::fit(&constant, BinStrategy::EqualWidth, nbins);
        prop_assert_eq!(bits(disc.edges()), bits(&gather_sort_edges(&constant, nbins)));
    }

    #[test]
    fn histogram_matches_gather_and_sort(
        cells in prop::collection::vec(prop::option::of(awkward_f64()), 0..300),
        bins in 0usize..12,
    ) {
        let constant: Vec<Option<f64>> = cells.iter().map(|c| c.map(|_| 2.5)).collect();
        let all_null = vec![None; cells.len()];
        for cells in [cells, constant, all_null] {
            let col = Column::from_f64s(cells.iter().copied());
            prop_assert_eq!(numeric_parts(histogram(&col, bins)), gather_sort_histogram(&cells, bins));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn first_rows_of_matches_rows_of_prefix(
        nrows in 120usize..600,
        seed in any::<u64>(),
    ) {
        let (table, _) = planted(&PlantedConfig { nrows, seed, ..PlantedConfig::default() })
            .unwrap();
        let columns: Vec<String> =
            table.schema().fields().iter().take(4).map(|f| f.name.clone()).collect();
        let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
        let view = table.into();
        let exact = MapperConfig { seed, sample_size: 100, ..MapperConfig::default() };
        let map = build_map(&view, &columns, &exact).unwrap();
        prop_assert!(!map.is_preview());
        check_first_rows(&map)?;
        let preview = MapperConfig { assign_preview: nrows / 2, ..exact };
        let map = build_map(&view, &columns, &preview).unwrap();
        prop_assert!(map.is_preview());
        check_first_rows(&map)?;
    }
}
