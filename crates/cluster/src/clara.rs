//! CLARA — Clustering LARge Applications (Kaufman & Rousseeuw 1990).
//!
//! "When the data is too large, Blaeu creates the maps with CLARA, a
//! sampling-based variant of the PAM algorithm." CLARA draws several row
//! samples, runs PAM on each, assigns the *whole* dataset to the sample's
//! medoids, and keeps the medoid set with the lowest total deviation.
//! Replicates run in parallel.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::distance::{BlockKernel, Points};
use crate::matrix::DistanceMatrix;
use crate::pam::{pam, PamConfig, PamResult};

/// Sweeps one contiguous row range through the blocked kernel, labeling
/// each row with its nearest medoid slot — the unit of work a worker
/// executes per canonical shard. Bitwise identical to the scalar
/// per-row sweep (see [`assign_points`]).
fn assign_shard(
    kernel: &BlockKernel<'_>,
    medoids: &[usize],
    rows: std::ops::Range<usize>,
) -> (Vec<usize>, f64) {
    let mut labels = Vec::with_capacity(rows.len());
    let mut total = 0.0f64;
    let mut dists = vec![0.0f64; medoids.len()];
    // Four rows at a time against each medoid: the medoid-anchored
    // four-lane kernel is bitwise equal to the scalar per-row sweep,
    // and the per-lane argmin replays the same ascending-slot strict
    // comparisons, so labels and the deviation total are unchanged.
    let mut j = rows.start;
    while j + 4 <= rows.end {
        let quad = [j, j + 1, j + 2, j + 3];
        let mut best_slot = [0usize; 4];
        let mut best_d = [f64::INFINITY; 4];
        let mut d4 = [0.0f64; 4];
        for (slot, &m) in medoids.iter().enumerate() {
            kernel.dists_tile4(quad, m, &mut d4);
            for l in 0..4 {
                if d4[l] < best_d[l] {
                    best_d[l] = d4[l];
                    best_slot[l] = slot;
                }
            }
        }
        for l in 0..4 {
            labels.push(best_slot[l]);
            total += best_d[l];
        }
        j += 4;
    }
    for j in j..rows.end {
        kernel.dists_to(j, medoids, &mut dists);
        let mut best_slot = 0usize;
        let mut best_d = f64::INFINITY;
        for (slot, &d) in dists.iter().enumerate() {
            if d < best_d {
                best_d = d;
                best_slot = slot;
            }
        }
        labels.push(best_slot);
        total += best_d;
    }
    (labels, total)
}

/// Configuration for [`clara`].
#[derive(Debug, Clone)]
pub struct ClaraConfig {
    /// Number of sampling replicates (Kaufman & Rousseeuw suggest 5).
    pub replicates: usize,
    /// Sample size; 0 means the classic `40 + 2k`.
    pub sample_size: usize,
    /// PAM settings for each replicate.
    pub pam: PamConfig,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
}

impl Default for ClaraConfig {
    fn default() -> Self {
        ClaraConfig {
            replicates: 5,
            sample_size: 0,
            pam: PamConfig::default(),
            seed: 99,
            threads: 0,
        }
    }
}

/// Assigns all points to the nearest of the given medoid rows (indices into
/// `points`), computing distances on the fly.
///
/// The dataset is partitioned into row shards (sized to the executor's
/// reduce grain) that workers claim adaptively; each worker sweeps its rows
/// through the point set's [`blocked kernel`](Points::block_kernel) (the
/// medoid rows stay cache-hot across consecutive points) and per-shard
/// labels and deviation sums are combined in shard order. The kernel is
/// bitwise identical to [`Points::dist`] and the shard layout depends only
/// on `points.len()`, so the deviation total is bit-identical across
/// thread counts.
pub fn assign_points(points: &Points, medoids: &[usize]) -> (Vec<usize>, f64) {
    let n = points.len();
    let kernel = points.block_kernel();
    let shards = blaeu_exec::ShardSpec::with_shard_size(n, blaeu_exec::REDUCE_GRAIN);
    let parts = blaeu_exec::par_shards(&shards, 0, |_, rows| assign_shard(&kernel, medoids, rows));
    let mut labels = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for (shard_labels, shard_total) in parts {
        labels.extend(shard_labels);
        total += shard_total;
    }
    (labels, total)
}

fn run_replicate(
    points: &Points,
    k: usize,
    sample_size: usize,
    pam_config: &PamConfig,
    seed: u64,
) -> PamResult {
    let n = points.len();
    let mut indices: Vec<usize> = (0..n).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    indices.shuffle(&mut rng);
    indices.truncate(sample_size.min(n));
    indices.sort_unstable();

    let sub = points.subset(&indices);
    let matrix = DistanceMatrix::from_points(&sub);
    let local = pam(&matrix, k, pam_config);

    // Map sample-local medoids back to global row indices, then score the
    // medoid set on the FULL dataset.
    let medoids: Vec<usize> = local.medoids.iter().map(|&m| indices[m]).collect();
    let (labels, total_deviation) = assign_points(points, &medoids);
    PamResult {
        medoids,
        labels,
        total_deviation,
        swaps: local.swaps,
        converged: local.converged,
    }
}

/// Runs CLARA over a point set.
///
/// Deterministic for a fixed seed; replicates are seeded `seed + r` and the
/// best one (lowest full-data total deviation, ties toward the earlier
/// replicate) wins.
///
/// # Panics
/// Panics if `points` is empty or `k == 0`.
pub fn clara(points: &Points, k: usize, config: &ClaraConfig) -> PamResult {
    assert!(!points.is_empty(), "cannot cluster an empty point set");
    assert!(k > 0, "k must be positive");
    let sample_size = if config.sample_size == 0 {
        40 + 2 * k
    } else {
        config.sample_size
    }
    .min(points.len());

    let replicates = config.replicates.max(1);
    // Replicates fan out on the shared executor with a steal grain of 1 —
    // a replicate is far too coarse to batch, and PAM convergence time
    // varies per sample, so idle workers steal the stragglers. Each
    // replicate is fully seeded by its index, and inner parallel work
    // (distance matrices, assignment sweeps) degrades to sequential via
    // the nesting guard, so results are independent of the thread count.
    let results = blaeu_exec::par_map_range_grained(replicates, config.threads, 1, |r| {
        run_replicate(points, k, sample_size, &config.pam, config.seed + r as u64)
    });

    results
        .into_iter()
        .enumerate()
        .min_by(|(ra, a), (rb, b)| {
            a.total_deviation
                .total_cmp(&b.total_deviation)
                .then(ra.cmp(rb))
        })
        .map(|(_, r)| r)
        .expect("at least one replicate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Metric;
    use crate::pam::assign_to_medoids;

    fn blobs(per_blob: usize) -> (Points, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for c in 0..3 {
            for i in 0..per_blob {
                // Deterministic jitter.
                let jitter = ((i * 2654435761usize) % 1000) as f64 / 1000.0;
                rows.push(vec![c as f64 * 50.0 + jitter, (c as f64) * -30.0 + jitter]);
                truth.push(c);
            }
        }
        (Points::new(rows, Metric::Euclidean), truth)
    }

    #[test]
    fn recovers_blobs_like_pam() {
        let (p, truth) = blobs(200);
        let r = clara(&p, 3, &ClaraConfig::default());
        assert_eq!(r.labels.len(), 600);
        // Perfect recovery up to label permutation: check pairwise purity.
        for c in 0..3 {
            let base = r.labels[c * 200];
            for i in 0..200 {
                assert_eq!(r.labels[c * 200 + i], base, "blob {c} split");
            }
        }
        let distinct: std::collections::HashSet<usize> = r.labels.iter().copied().collect();
        assert_eq!(distinct.len(), 3);
        assert_eq!(truth.len(), 600);
    }

    #[test]
    fn deterministic() {
        let (p, _) = blobs(100);
        let a = clara(&p, 3, &ClaraConfig::default());
        let b = clara(&p, 3, &ClaraConfig::default());
        assert_eq!(a.medoids, b.medoids);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn default_sample_size_is_40_plus_2k() {
        // Indirectly: tiny data is fully sampled, so CLARA == PAM quality.
        let (p, _) = blobs(10);
        let r = clara(&p, 3, &ClaraConfig::default());
        let m = DistanceMatrix::from_points(&p);
        let exact = pam(&m, 3, &PamConfig::default());
        assert!((r.total_deviation - exact.total_deviation).abs() < 1e-9);
    }

    #[test]
    fn clara_close_to_pam_on_larger_data() {
        let (p, _) = blobs(150);
        let m = DistanceMatrix::from_points(&p);
        let exact = pam(&m, 3, &PamConfig::default());
        let approx = clara(&p, 3, &ClaraConfig::default());
        // CLARA should be within a few percent of PAM's deviation here.
        assert!(
            approx.total_deviation <= exact.total_deviation * 1.10,
            "clara {} vs pam {}",
            approx.total_deviation,
            exact.total_deviation
        );
    }

    #[test]
    fn assign_points_matches_matrix_assignment() {
        let (p, _) = blobs(30);
        let medoids = vec![5, 40, 75];
        let (labels_direct, total_direct) = assign_points(&p, &medoids);
        let m = DistanceMatrix::from_points(&p);
        let (labels_matrix, total_matrix) = assign_to_medoids(&m, &medoids);
        assert_eq!(labels_direct, labels_matrix);
        assert!((total_direct - total_matrix).abs() < 1e-9);
    }

    #[test]
    fn assign_points_matches_scalar_oracle_across_row_shards() {
        // Three full row shards and a short fourth one, with a row count
        // that is not a multiple of four: the four-lane sweep, its
        // stragglers and the shard-order fold must equal a scalar
        // ascending-slot argmin summed per shard, sums folded left.
        let grain = blaeu_exec::REDUCE_GRAIN;
        let n = 3 * grain + 5;
        let dims = 4;
        let mut data = Vec::with_capacity(n * dims);
        for i in 0..n {
            let h = i.wrapping_mul(2654435761) % 1009;
            data.push(if h % 13 == 0 {
                f64::NAN
            } else {
                h as f64 / 7.0
            });
            data.push((h as f64).sin());
            data.push((h % 5) as f64);
            data.push(if h % 11 == 0 {
                f64::NAN
            } else {
                (h % 3) as f64
            });
        }
        let metric = Metric::fit_gower_flat(&data, n, dims, vec![false, false, true, true]);
        let p = Points::new(data.chunks(dims).map(<[f64]>::to_vec).collect(), metric);
        // Medoids for which a reversed, pairwise or flat row-order sum
        // each give other total bits than the left fold of shard sums.
        let medoids = [9, 1509, 2909, n - 10, 427];
        let mut want_labels = Vec::with_capacity(n);
        let mut want_total = 0.0f64;
        for start in (0..n).step_by(grain) {
            let mut shard_total = 0.0f64;
            for j in start..(start + grain).min(n) {
                let (mut best_slot, mut best_d) = (0, f64::INFINITY);
                for (slot, &m) in medoids.iter().enumerate() {
                    let d = p.dist(j, m);
                    if d < best_d {
                        best_d = d;
                        best_slot = slot;
                    }
                }
                want_labels.push(best_slot);
                shard_total += best_d;
            }
            want_total += shard_total;
        }
        let (labels, total) = assign_points(&p, &medoids);
        assert_eq!(labels, want_labels);
        assert_eq!(total.to_bits(), want_total.to_bits());
    }

    #[test]
    fn more_replicates_never_hurt() {
        let (p, _) = blobs(120);
        let one = clara(
            &p,
            3,
            &ClaraConfig {
                replicates: 1,
                ..ClaraConfig::default()
            },
        );
        let five = clara(&p, 3, &ClaraConfig::default());
        assert!(five.total_deviation <= one.total_deviation + 1e-9);
    }

    #[test]
    fn single_threaded_matches_parallel() {
        let (p, _) = blobs(80);
        let serial = clara(
            &p,
            3,
            &ClaraConfig {
                threads: 1,
                ..ClaraConfig::default()
            },
        );
        let parallel = clara(
            &p,
            3,
            &ClaraConfig {
                threads: 4,
                ..ClaraConfig::default()
            },
        );
        assert_eq!(serial.medoids, parallel.medoids);
        assert_eq!(serial.total_deviation, parallel.total_deviation);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_points_panic() {
        let p = Points::new(vec![], Metric::Euclidean);
        let _ = clara(&p, 2, &ClaraConfig::default());
    }
}
