//! CART benchmarks: fitting map trees and routing rows through them
//! (the per-zoom costs of the mapping pipeline's third stage).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use blaeu_bench::{as_points, blob_columns, blobs};
use blaeu_cluster::{pam, DistanceMatrix, PamConfig};
use blaeu_tree::{leaf_rules, CartConfig, DecisionTree};

fn fitted(n: usize) -> (blaeu_store::TableView, Vec<usize>, DecisionTree) {
    let (table, truth) = blobs(n, 4);
    let table = blaeu_store::TableView::from(table);
    let columns = blob_columns(&truth);
    let points = as_points(&table, &columns);
    let matrix = DistanceMatrix::from_points(&points);
    let labels = pam(&matrix, 4, &PamConfig::default()).labels;
    let tree = DecisionTree::fit(&table, &columns, &labels, &CartConfig::default()).expect("fits");
    (table, labels, tree)
}

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree/fit");
    group.sample_size(10);
    for &n in &[500usize, 2000] {
        let (table, truth) = blobs(n, 4);
        let table = blaeu_store::TableView::from(table);
        let columns = blob_columns(&truth);
        let points = as_points(&table, &columns);
        let matrix = DistanceMatrix::from_points(&points);
        let labels = pam(&matrix, 4, &PamConfig::default()).labels;
        group.bench_with_input(BenchmarkId::new("6cols_k4", n), &n, |b, _| {
            b.iter(|| {
                DecisionTree::fit(
                    black_box(&table),
                    black_box(&columns),
                    black_box(&labels),
                    &CartConfig::default(),
                )
                .expect("fits")
            })
        });
    }
    group.finish();
}

fn bench_predict_and_route(c: &mut Criterion) {
    let (table, _, tree) = fitted(2000);
    let (big, _) = blobs(100_000, 4);
    let big = blaeu_store::TableView::from(big);
    let mut group = c.benchmark_group("tree/route");
    group.sample_size(10);
    group.bench_function("predict_2000", |b| {
        b.iter(|| tree.predict(black_box(&table)).expect("same schema"))
    });
    group.bench_function("leaf_assignments_100k", |b| {
        b.iter(|| tree.leaf_assignments(black_box(&big)).expect("same schema"))
    });
    group.finish();
}

fn bench_rules(c: &mut Criterion) {
    let (_, _, tree) = fitted(2000);
    c.bench_function("tree/leaf_rules", |b| {
        b.iter(|| leaf_rules(black_box(&tree)))
    });
}

criterion_group!(benches, bench_fit, bench_predict_and_route, bench_rules);
criterion_main!(benches);
