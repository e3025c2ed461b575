//! Seeded synthetic dataset generators.
//!
//! The Blaeu demo runs on three real datasets (Hollywood movies, OECD
//! regional indicators, the LOFAR source catalogue) that are not
//! redistributable. These generators reproduce their documented shapes and —
//! crucially — come with *planted ground truth* (row-cluster labels and
//! column-theme assignments), which turns the paper's qualitative accuracy
//! claims into measurable quantities (ARI / NMI against the truth).

mod hollywood;
mod lofar;
mod oecd;
mod planted;

pub use hollywood::{hollywood, HollywoodConfig};
pub use lofar::{lofar, LofarConfig};
pub use oecd::{oecd, LaborCluster, OecdConfig};
pub use planted::{planted, ColumnShape, PlantedConfig, PlantedTruth, ThemeSpec};

use rand::Rng;

use crate::sample::StoreRng;

/// Standard normal variate via Box–Muller (the `rand_distr` crate is not a
/// declared dependency; two lines of math beat a new dependency).
pub(crate) fn gauss(rng: &mut StoreRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples an index from unnormalized weights.
pub(crate) fn weighted_index(rng: &mut StoreRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut target = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::rng_from_seed;

    #[test]
    fn gauss_has_standard_moments() {
        let mut rng = rng_from_seed(1);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| gauss(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.06, "var {var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = rng_from_seed(2);
        let weights = [1.0, 3.0];
        let mut counts = [0usize; 2];
        for _ in 0..8000 {
            counts[weighted_index(&mut rng, &weights)] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.45, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_single_weight() {
        let mut rng = rng_from_seed(3);
        assert_eq!(weighted_index(&mut rng, &[5.0]), 0);
    }
}
