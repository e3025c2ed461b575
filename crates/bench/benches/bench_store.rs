//! Storage-layer benchmarks: scans, predicate evaluation, gathers,
//! sampling, CSV ingestion. These bound every interactive action
//! (supports C7 in EXPERIMENTS.md).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use blaeu_bench::{blob_columns, blobs, SEED};
use blaeu_store::{
    read_csv_str, read_snapshot_bytes, uniform_sample, write_csv_string, write_snapshot_bytes,
    Bitmap, CsvOptions, MultiScaleSampler, Predicate, Table,
};

fn bench_predicates(c: &mut Criterion) {
    let (table, truth) = blobs(100_000, 3);
    let col = blob_columns(&truth)[0];
    let mut group = c.benchmark_group("store/predicate");
    group.bench_function("numeric_range_100k", |b| {
        b.iter(|| {
            Predicate::range_co(col, -1.0, 1.0)
                .select(black_box(&table))
                .expect("valid predicate")
        })
    });
    group.bench_function("conjunction_100k", |b| {
        let cols = blob_columns(&truth);
        let p = Predicate::And(vec![
            Predicate::ge(cols[0], 0.0),
            Predicate::lt(cols[1], 2.0),
            Predicate::ge(cols[2], -3.0),
        ]);
        b.iter(|| p.select(black_box(&table)).expect("valid predicate"))
    });
    group.finish();
}

fn bench_take(c: &mut Criterion) {
    let (table, _) = blobs(100_000, 3);
    let rows = uniform_sample(100_000, 10_000, SEED);
    c.bench_function("store/take_10k_of_100k", |b| {
        b.iter(|| black_box(&table).take(black_box(&rows)).expect("in bounds"))
    });
}

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("store/sample");
    for &n in &[10_000usize, 100_000, 1_000_000] {
        group.bench_with_input(BenchmarkId::new("multiscale_build", n), &n, |b, &n| {
            b.iter(|| MultiScaleSampler::new(black_box(n), SEED))
        });
        group.bench_with_input(BenchmarkId::new("uniform_2k", n), &n, |b, &n| {
            b.iter(|| uniform_sample(black_box(n), 2000, SEED))
        });
    }
    group.finish();
}

fn bench_csv(c: &mut Criterion) {
    let (table, _) = blobs(5_000, 3);
    let rendered = write_csv_string(&table, &CsvOptions::default()).expect("in-memory");
    c.bench_function("store/csv_parse_5k_rows", |b| {
        b.iter(|| read_csv_str("t", black_box(&rendered), &CsvOptions::default()).expect("valid"))
    });
}

fn bench_snapshot(c: &mut Criterion) {
    // Same 50k-row table through both load paths: parsing the rendered
    // CSV (type inference, float parsing, dictionary building) vs
    // decoding the column snapshot (validated memcpy of column blobs).
    let (table, _) = blobs(50_000, 3);
    let rendered = write_csv_string(&table, &CsvOptions::default()).expect("in-memory");
    let blob = write_snapshot_bytes(&table);
    let mut group = c.benchmark_group("store/snapshot");
    group.sample_size(20);
    group.bench_function("csv_parse_50k", |b| {
        b.iter(|| read_csv_str("t", black_box(&rendered), &CsvOptions::default()).expect("valid"))
    });
    group.bench_function("read_50k", |b| {
        b.iter(|| read_snapshot_bytes(black_box(&blob)).expect("valid"))
    });
    // The file path end to end (page-cache hot): read the file, then the
    // same decode as `read_50k`, isolating what the file layer costs on
    // top.
    let path = std::env::temp_dir().join("blaeu_bench_snapshot.snap");
    table.write_snapshot(&path).expect("writable");
    group.bench_function("file_read_50k", |b| {
        b.iter(|| Table::read_snapshot(black_box(&path)).expect("valid"))
    });
    let _ = std::fs::remove_file(&path);
    group.bench_function("write_50k", |b| {
        b.iter(|| write_snapshot_bytes(black_box(&table)))
    });
    group.finish();
}

fn bench_bitmap(c: &mut Criterion) {
    // Word-wise validity kernels at the 1M-bit scale a large column's
    // null mask reaches. ~43% density with runs, so `iter_ones` exercises
    // both skipping empty words and draining dense ones.
    const N: usize = 1 << 20;
    let bits_a: Vec<bool> = (0..N)
        .map(|i| (i.wrapping_mul(2654435761)) % 7 < 3)
        .collect();
    let bits_b: Vec<bool> = (0..N).map(|i| (i.wrapping_mul(40503)) % 5 < 3).collect();
    let a = Bitmap::from_bools(&bits_a);
    let b = Bitmap::from_bools(&bits_b);
    let mut group = c.benchmark_group("store/bitmap");
    group.bench_function("and_count_1m", |bch| {
        bch.iter(|| black_box(&a).and(black_box(&b)).count_ones())
    });
    group.bench_function("iter_ones_sum_1m", |bch| {
        bch.iter(|| black_box(&a).iter_ones().map(|i| i as u64).sum::<u64>())
    });
    group.bench_function("count_ones_range_1m", |bch| {
        bch.iter(|| black_box(&a).count_ones_range(black_box(1234), black_box(N - 4321)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_predicates,
    bench_take,
    bench_sampling,
    bench_csv,
    bench_snapshot,
    bench_bitmap
);
criterion_main!(benches);
