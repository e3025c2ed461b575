//! Executor smoke benches — the workloads behind the CI regression gate.
//!
//! `calibrate/spin` is a fixed scalar workload the criterion shim uses to
//! normalize a committed baseline across machines of different speeds.
//! `exec_skew` runs the adaptive steal grain on a quadratic-cost workload
//! (the shape of condensed-matrix bands); the remaining groups cover the
//! sharded hot paths (distance-matrix bands, CLARA whole-dataset
//! assignment, the pairwise dependency sweep).
//!
//! Refresh the committed baseline with the same thread budget the CI
//! gate uses (the budget changes what the parallel benches measure):
//! `CRITERION_SAVE_BASELINE=$PWD/.github/bench-baseline.json BLAEU_THREADS=8 cargo bench -p blaeu-bench --bench bench_exec`

use blaeu_bench::{as_points, blob_columns, blobs, oecd_small};
use blaeu_cluster::{assign_points, DistanceMatrix};
use blaeu_stats::{dependency_matrix, DependencyOptions};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Deterministic spin kernel; `units` scales the work linearly. The
/// xorshift steps form a serial dependency chain, so the loop cannot be
/// closed-formed or vectorized away.
fn spin(units: usize) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..units {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

fn calibrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("calibrate");
    group.sample_size(30);
    group.bench_function("spin", |b| b.iter(|| spin(black_box(2_000_000))));
    group.finish();
}

fn bench_skew(c: &mut Criterion) {
    // Item i costs O(i²): a static n/threads split would leave the last
    // chunk ~1 − ((t−1)/t)³ of the total work (≈ 33% at t = 8); the
    // adaptive steal grain keeps every core busy instead.
    let cost: Vec<usize> = (0..512).map(|i| i * i / 4 + 500).collect();
    let mut group = c.benchmark_group("exec_skew");
    group.sample_size(30);
    group.bench_function("par_map/adaptive", |b| {
        b.iter(|| blaeu_exec::par_map(&cost, 0, |_, &units| spin(units)))
    });
    group.finish();
}

fn bench_matrix(c: &mut Criterion) {
    let (table, truth) = blobs(1500, 3);
    let points = as_points(&table.into(), &blob_columns(&truth));
    let mut group = c.benchmark_group("exec_matrix");
    group.sample_size(30);
    group.bench_function("from_points/1500", |b| {
        b.iter(|| DistanceMatrix::from_points(black_box(&points)))
    });
    group.finish();
}

fn bench_assign(c: &mut Criterion) {
    let (table, truth) = blobs(20_000, 3);
    let points = as_points(&table.into(), &blob_columns(&truth));
    let medoids = [10usize, 7_000, 14_000];
    let mut group = c.benchmark_group("exec_assign");
    group.sample_size(30);
    group.bench_function("assign_points/20000", |b| {
        b.iter(|| assign_points(black_box(&points), black_box(&medoids)))
    });
    group.finish();
}

fn bench_mi_sweep(c: &mut Criterion) {
    let (table, _) = oecd_small();
    let table = blaeu_store::TableView::from(table);
    let columns: Vec<&str> = table.schema().names();
    let mut group = c.benchmark_group("exec_mi");
    group.sample_size(30);
    group.bench_function("dependency_matrix/36", |b| {
        b.iter(|| dependency_matrix(&table, &columns, &DependencyOptions::default()).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    calibrate,
    bench_skew,
    bench_matrix,
    bench_assign,
    bench_mi_sweep
);
criterion_main!(benches);
