//! Property tests for the sketch combine: across random tables, random
//! shard-range groupings, and thread budgets {1, 8}, merging range
//! partials in shard order is bit-identical to the full-range run, and
//! the merge is shard-order-associative (grouping does not matter as
//! long as order is preserved).

use proptest::prelude::*;

use blaeu::core::{SketchOp, SketchPartial};
use blaeu::store::{Column, TableBuilder, TableView};

/// Builds a mixed-type table: `x` dense numeric (never constant — the
/// index jitter keeps preprocessing away from degenerate all-equal
/// columns proptest shrinking loves), `m` numeric with nulls, `g`
/// categorical.
fn table_view(xs: &[f64], opts: &[Option<f64>], labels: &[u8]) -> (TableView, usize) {
    let n = xs.len().min(opts.len()).min(labels.len());
    let x: Vec<f64> = xs[..n]
        .iter()
        .enumerate()
        .map(|(i, v)| v + i as f64 * 1e-3)
        .collect();
    let g: Vec<String> = labels[..n].iter().map(|l| format!("g{}", l % 5)).collect();
    let view: TableView = TableBuilder::new("t")
        .column("x", Column::dense_f64(x))
        .unwrap()
        .column("m", Column::from_f64s(opts[..n].iter().copied()))
        .unwrap()
        .column("g", Column::from_strs(g.iter().map(|s| Some(s.as_str()))))
        .unwrap()
        .build()
        .unwrap()
        .into();
    (view, n)
}

/// One op per mergeable analysis family, sized to the table.
fn ops(n: usize) -> Vec<SketchOp> {
    vec![
        SketchOp::DepMatrix {
            columns: vec!["x".into(), "m".into(), "g".into()],
        },
        SketchOp::Describe {
            column: "m".into(),
            top_k: 4,
        },
        SketchOp::Describe {
            column: "g".into(),
            top_k: 3,
        },
        SketchOp::Histogram {
            column: "m".into(),
            bins: 8,
        },
        SketchOp::Histogram {
            column: "g".into(),
            bins: 3,
        },
        SketchOp::ClaraAssign {
            columns: vec!["x".into(), "g".into()],
            medoids: vec![0, n / 2],
        },
    ]
}

/// Turns raw cut points into a sorted, deduplicated shard-boundary
/// list `0 = b_0 < … < b_k = shard_count` — a random contiguous
/// grouping of the shard space.
fn boundaries(cuts: &[usize], shard_count: usize) -> Vec<usize> {
    let mut b: Vec<usize> = cuts.iter().map(|c| c % (shard_count + 1)).collect();
    b.push(0);
    b.push(shard_count);
    b.sort_unstable();
    b.dedup();
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The combine invariant, fuzzed: any contiguous grouping of the
    /// shard space, run at any thread budget, merged in shard order,
    /// equals the full run bit for bit.
    #[test]
    fn grouped_merge_bit_identical_to_full_run(
        xs in prop::collection::vec(-1e3f64..1e3, 40..160),
        opts in prop::collection::vec(prop::option::of(-1e3f64..1e3), 40..160),
        labels in prop::collection::vec(0u8..5, 40..160),
        cuts in prop::collection::vec(0usize..64, 0..5),
        threads_pick in 0usize..2,
    ) {
        let (view, n) = table_view(&xs, &opts, &labels);
        let threads = [1usize, 8][threads_pick];
        for op in ops(n) {
            let plan = op.plan(&view).expect("columns exist");
            let shard_count = plan.spec().shard_count();
            let full = plan.run_range(0..shard_count, 1);
            let b = boundaries(&cuts, shard_count);

            // Run each group (at the sampled thread budget), merge in
            // shard order.
            let mut merged: Option<SketchPartial> = None;
            for pair in b.windows(2) {
                let part = plan.run_range(pair[0]..pair[1], threads);
                match &mut merged {
                    None => merged = Some(part),
                    Some(acc) => acc.merge(part).expect("same op, same layout"),
                }
            }
            let merged = merged.expect("at least one group");
            prop_assert_eq!(
                format!("{merged:?}"), format!("{full:?}"),
                "op {:?}: grouped merge diverged (threads {})", op, threads
            );
        }
    }

    /// Shard-order associativity: merging `(ab)c` and `a(bc)` agree, so
    /// any contiguous run of partials may be pre-merged without changing
    /// the result.
    #[test]
    fn merge_is_shard_order_associative(
        xs in prop::collection::vec(-1e2f64..1e2, 40..120),
        opts in prop::collection::vec(prop::option::of(-1e2f64..1e2), 40..120),
        labels in prop::collection::vec(0u8..5, 40..120),
        cut_a in 0usize..32,
        cut_b in 0usize..32,
    ) {
        let (view, n) = table_view(&xs, &opts, &labels);
        for op in ops(n) {
            let plan = op.plan(&view).expect("columns exist");
            let count = plan.spec().shard_count();
            let mut cuts = [cut_a % (count + 1), cut_b % (count + 1)];
            cuts.sort_unstable();
            let (i, j) = (cuts[0], cuts[1]);
            let a = plan.run_range(0..i, 1);
            let b = plan.run_range(i..j, 1);
            let c = plan.run_range(j..count, 1);

            let mut left = a.clone();
            left.merge(b.clone()).expect("compatible");
            left.merge(c.clone()).expect("compatible");

            let mut right_tail = b;
            right_tail.merge(c).expect("compatible");
            let mut right = a;
            right.merge(right_tail).expect("compatible");

            prop_assert_eq!(
                format!("{left:?}"), format!("{right:?}"),
                "op {:?}: (ab)c != a(bc) at cuts {}..{}", op, i, j
            );
        }
    }
}
