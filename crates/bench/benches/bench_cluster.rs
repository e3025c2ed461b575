//! Clustering benchmarks: PAM vs CLARA scaling (C3), silhouette costs
//! (C2/A3) and k-selection sweeps.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use blaeu_bench::{as_points, blob_columns, blobs, SEED};
use blaeu_cluster::{
    agglomerative, clara, mc_silhouette, pam, select_k, silhouette_score, ClaraConfig,
    DistanceMatrix, KSelectConfig, Linkage, McSilhouetteConfig, PamConfig,
};

fn bench_pam(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster/pam");
    group.sample_size(10);
    for &n in &[250usize, 500, 1000] {
        let (table, truth) = blobs(n, 3);
        let points = as_points(&table.into(), &blob_columns(&truth));
        let matrix = DistanceMatrix::from_points(&points);
        group.bench_with_input(BenchmarkId::new("k3", n), &matrix, |b, m| {
            b.iter(|| pam(black_box(m), 3, &PamConfig::default()))
        });
    }
    group.finish();
}

fn bench_clara(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster/clara");
    group.sample_size(10);
    for &n in &[1000usize, 10_000, 50_000] {
        let (table, truth) = blobs(n, 3);
        let points = as_points(&table.into(), &blob_columns(&truth));
        group.bench_with_input(BenchmarkId::new("k3", n), &points, |b, p| {
            b.iter(|| clara(black_box(p), 3, &ClaraConfig::default()))
        });
    }
    group.finish();
}

fn bench_gower_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster/distance_matrix");
    group.sample_size(10);
    for &n in &[500usize, 1000, 2000] {
        let (table, truth) = blobs(n, 3);
        let points = as_points(&table.into(), &blob_columns(&truth));
        group.bench_with_input(BenchmarkId::new("gower", n), &points, |b, p| {
            b.iter(|| DistanceMatrix::from_points(black_box(p)))
        });
    }
    group.finish();
}

fn bench_assign(c: &mut Criterion) {
    // Whole-dataset nearest-medoid sweeps (the step after CLARA samples):
    // bounded by the blocked distance kernel, not by clustering logic.
    let mut group = c.benchmark_group("cluster/assign");
    group.sample_size(10);
    for &n in &[20_000usize, 100_000] {
        let (table, truth) = blobs(n, 3);
        let points = as_points(&table.into(), &blob_columns(&truth));
        let medoids = [5usize, n / 3, 2 * n / 3];
        group.bench_with_input(BenchmarkId::new("k3", n), &points, |b, p| {
            b.iter(|| blaeu_cluster::assign_points(black_box(p), black_box(&medoids)))
        });
    }
    group.finish();
}

fn bench_silhouette(c: &mut Criterion) {
    let (table, truth) = blobs(2000, 3);
    let points = as_points(&table.into(), &blob_columns(&truth));
    let matrix = DistanceMatrix::from_points(&points);
    let labels = &truth.labels;

    let mut group = c.benchmark_group("cluster/silhouette");
    group.sample_size(10);
    group.bench_function("exact_2000", |b| {
        b.iter(|| silhouette_score(black_box(&matrix), black_box(labels)))
    });
    group.bench_function("mc_4x256_of_2000", |b| {
        b.iter(|| {
            mc_silhouette(
                black_box(&points),
                black_box(labels),
                &McSilhouetteConfig {
                    subsamples: 4,
                    subsample_size: 256,
                    seed: SEED,
                },
            )
        })
    });
    group.finish();
}

fn bench_kselect(c: &mut Criterion) {
    let (table, truth) = blobs(1000, 3);
    let points = as_points(&table.into(), &blob_columns(&truth));
    let mut group = c.benchmark_group("cluster/select_k");
    group.sample_size(10);
    group.bench_function("sweep_2_to_6_n1000", |b| {
        b.iter(|| {
            select_k(
                black_box(&points),
                &KSelectConfig {
                    k_min: 2,
                    k_max: 6,
                    ..KSelectConfig::default()
                },
            )
        })
    });
    group.finish();
}

fn bench_hierarchical(c: &mut Criterion) {
    // Theme-detection scale: a few hundred "columns" as points.
    let (table, truth) = blobs(300, 3);
    let points = as_points(&table.into(), &blob_columns(&truth));
    let matrix = DistanceMatrix::from_points(&points);
    let mut group = c.benchmark_group("cluster/agglomerative");
    group.sample_size(10);
    for (name, linkage) in [
        ("average", Linkage::Average),
        ("complete", Linkage::Complete),
    ] {
        group.bench_function(format!("{name}_300"), |b| {
            b.iter(|| agglomerative(black_box(&matrix), linkage))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pam,
    bench_clara,
    bench_gower_matrix,
    bench_assign,
    bench_silhouette,
    bench_kselect,
    bench_hierarchical
);
criterion_main!(benches);
