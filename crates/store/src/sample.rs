//! Row sampling, including the multi-scale sampler behind Blaeu's latency.
//!
//! All of Blaeu's pipeline stages are time consuming, so the system "relies
//! heavily on sampling": after each zoom it takes a few thousand rows from
//! the database and computes the map on those. Two samplers are provided:
//!
//! * [`uniform_sample`] — classic uniform sampling without replacement.
//! * [`MultiScaleSampler`] — the paper's *multi-scale* scheme: one seeded
//!   shuffle whose prefixes are valid uniform samples at every size, so
//!   samples are **nested** (`sample(m) ⊆ sample(n)` for `m ≤ n`) and
//!   stable across interactions. Nesting is what keeps successive zooms
//!   visually consistent: growing the sample refines the map instead of
//!   redrawing an unrelated one.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Deterministic RNG used across the engine (seeded, portable).
pub type StoreRng = ChaCha8Rng;

/// Creates the engine's RNG from a seed.
pub fn rng_from_seed(seed: u64) -> StoreRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Draws `k` distinct row indices uniformly from `0..n`, in ascending order.
///
/// When `k >= n`, all rows are returned.
pub fn uniform_sample(n: usize, k: usize, seed: u64) -> Vec<u32> {
    if k >= n {
        return (0..n as u32).collect();
    }
    let mut rng = rng_from_seed(seed);
    // Floyd's algorithm: O(k) expected, no O(n) allocation.
    let mut chosen = std::collections::HashSet::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        if !chosen.insert(t as u32) {
            chosen.insert(j as u32);
        }
    }
    // lint: allow(digest-determinism) — hash order cannot leak: the indices are sorted on the next line before return
    let mut out: Vec<u32> = chosen.into_iter().collect();
    out.sort_unstable();
    out
}

/// Multi-scale sampler: one shuffled permutation whose prefixes are uniform
/// samples of every size.
///
/// The permutation is drawn once per (population, seed); `sample(k)` is the
/// sorted first-`k` prefix. Prefixes of a uniform random permutation are
/// uniform samples without replacement, and they are nested by construction.
#[derive(Debug, Clone)]
pub struct MultiScaleSampler {
    permutation: Vec<u32>,
}

impl MultiScaleSampler {
    /// Builds a sampler over the population `0..n`.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut permutation: Vec<u32> = (0..n as u32).collect();
        let mut rng = rng_from_seed(seed);
        permutation.shuffle(&mut rng);
        MultiScaleSampler { permutation }
    }

    /// Uniform sample of `k` rows (all rows when `k` exceeds the
    /// population), sorted ascending.
    pub fn sample(&self, k: usize) -> Vec<u32> {
        let k = k.min(self.permutation.len());
        let mut out = self.permutation[..k].to_vec();
        out.sort_unstable();
        out
    }

    /// `count` disjoint sub-samples of `k` rows each, used by the
    /// Monte-Carlo silhouette. Later sub-samples wrap around when the
    /// population is exhausted (they stay uniform but lose disjointness).
    pub fn subsamples(&self, count: usize, k: usize) -> Vec<Vec<u32>> {
        let n = self.permutation.len();
        if n == 0 || k == 0 {
            return vec![Vec::new(); count];
        }
        let k = k.min(n);
        let mut out = Vec::with_capacity(count);
        for c in 0..count {
            let start = (c * k) % n;
            let mut sub = Vec::with_capacity(k);
            for j in 0..k {
                sub.push(self.permutation[(start + j) % n]);
            }
            sub.sort_unstable();
            sub.dedup();
            out.push(sub);
        }
        out
    }
}

/// O(k) multi-scale sample: the first `k` entries of a streaming
/// Fisher-Yates shuffle of `0..n`, sorted ascending.
///
/// Equivalent in distribution to [`MultiScaleSampler::new`] followed by
/// [`MultiScaleSampler::sample`], but without materializing (or even
/// visiting) the full permutation: iteration `i` draws the swap target
/// `j ∈ i..n` and a hash map records the handful of displaced values, so
/// cost is O(k) regardless of the population size. Samples are nested —
/// for a fixed `(n, seed)`, `prefix_sample(n, m, seed)` is a subset of
/// `prefix_sample(n, k, seed)` whenever `m ≤ k` — because the first `m`
/// draws of the stream are shared. This is what lets the progressive
/// ladder take its level-0 sample from a 50k-row view in microseconds
/// instead of paying a full O(n) shuffle per rung.
pub fn prefix_sample(n: usize, k: usize, seed: u64) -> Vec<u32> {
    let k = k.min(n);
    let mut rng = rng_from_seed(seed);
    // Sparse view of the array being shuffled: position -> current value,
    // defaulting to the identity for positions never swapped.
    let mut displaced: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let value_at = |map: &std::collections::HashMap<u32, u32>, idx: u32| -> u32 {
        map.get(&idx).copied().unwrap_or(idx)
    };
    let mut out = Vec::with_capacity(k);
    for i in 0..k {
        let j = rng.gen_range(i..n) as u32;
        let vi = value_at(&displaced, i as u32);
        let vj = value_at(&displaced, j);
        out.push(vj);
        // The value formerly at i moves to j (position i is never read
        // again, so it needs no entry).
        displaced.insert(j, vi);
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sample_basic_properties() {
        let s = uniform_sample(100, 10, 42);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn uniform_sample_k_ge_n_returns_all() {
        assert_eq!(uniform_sample(5, 5, 1), vec![0, 1, 2, 3, 4]);
        assert_eq!(uniform_sample(5, 99, 1), vec![0, 1, 2, 3, 4]);
        assert_eq!(uniform_sample(0, 3, 1), Vec::<u32>::new());
    }

    #[test]
    fn uniform_sample_deterministic_per_seed() {
        assert_eq!(uniform_sample(1000, 50, 7), uniform_sample(1000, 50, 7));
        assert_ne!(uniform_sample(1000, 50, 7), uniform_sample(1000, 50, 8));
    }

    #[test]
    fn uniform_sample_is_roughly_uniform() {
        // Each row should appear in ~k/n of many repeated samples.
        let n = 50;
        let k = 10;
        let reps = 2000;
        let mut counts = vec![0usize; n];
        for seed in 0..reps {
            for &i in &uniform_sample(n, k, seed as u64) {
                counts[i as usize] += 1;
            }
        }
        let expected = reps * k / n; // 400
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected as f64).abs() < expected as f64 * 0.25,
                "row {i} appeared {c} times, expected ~{expected}"
            );
        }
    }

    #[test]
    fn multiscale_samples_are_nested() {
        let ms = MultiScaleSampler::new(500, 11);
        let small: std::collections::HashSet<u32> = ms.sample(50).into_iter().collect();
        let big: std::collections::HashSet<u32> = ms.sample(200).into_iter().collect();
        assert!(small.is_subset(&big), "multi-scale samples must be nested");
        assert_eq!(small.len(), 50);
        assert_eq!(big.len(), 200);
    }

    #[test]
    fn multiscale_clamps_to_population() {
        let ms = MultiScaleSampler::new(10, 0);
        assert_eq!(ms.sample(100).len(), 10);
    }

    #[test]
    fn subsamples_disjoint_until_wraparound() {
        let ms = MultiScaleSampler::new(100, 2);
        let subs = ms.subsamples(4, 20);
        assert_eq!(subs.len(), 4);
        let mut all: Vec<u32> = subs.iter().flatten().copied().collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "4×20 from 100 rows must be disjoint");
    }

    #[test]
    fn subsamples_wrap_gracefully() {
        let ms = MultiScaleSampler::new(10, 2);
        let subs = ms.subsamples(3, 8);
        for sub in &subs {
            assert!(!sub.is_empty());
            assert!(sub.len() <= 8);
        }
    }

    #[test]
    fn subsamples_empty_population() {
        let ms = MultiScaleSampler::new(0, 0);
        let subs = ms.subsamples(2, 5);
        assert_eq!(subs, vec![Vec::<u32>::new(), Vec::new()]);
    }

    #[test]
    fn prefix_sample_basic_properties() {
        let s = prefix_sample(10_000, 50, 9);
        assert_eq!(s.len(), 50);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        assert!(s.iter().all(|&i| i < 10_000));
        assert_eq!(s, prefix_sample(10_000, 50, 9), "deterministic");
        assert_ne!(s, prefix_sample(10_000, 50, 10));
    }

    #[test]
    fn prefix_sample_is_nested() {
        for k in [1usize, 7, 32, 100] {
            let small: std::collections::HashSet<u32> =
                prefix_sample(5000, k, 3).into_iter().collect();
            let big: std::collections::HashSet<u32> =
                prefix_sample(5000, 400, 3).into_iter().collect();
            assert_eq!(small.len(), k);
            assert!(small.is_subset(&big), "prefix samples must be nested");
        }
    }

    #[test]
    fn prefix_sample_clamps_and_handles_empty() {
        let all = prefix_sample(8, 100, 1);
        assert_eq!(all.len(), 8);
        assert_eq!(all, (0..8).collect::<Vec<u32>>());
        assert_eq!(prefix_sample(0, 5, 1), Vec::<u32>::new());
        assert_eq!(prefix_sample(5, 0, 1), Vec::<u32>::new());
    }

    #[test]
    fn prefix_sample_is_roughly_uniform() {
        let n = 50;
        let k = 10;
        let reps = 2000;
        let mut counts = vec![0usize; n];
        for seed in 0..reps {
            for &i in &prefix_sample(n, k, seed as u64) {
                counts[i as usize] += 1;
            }
        }
        let expected = reps * k / n; // 400
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected as f64).abs() < expected as f64 * 0.25,
                "row {i} appeared {c} times, expected ~{expected}"
            );
        }
    }
}
