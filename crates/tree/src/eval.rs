//! Evaluating tree fidelity.
//!
//! "The decision tree only approximates the real partitions detected during
//! the clustering step" — these helpers measure exactly that loss.

/// Fraction of exact label matches.
pub fn accuracy(predicted: &[usize], actual: &[usize]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "label vectors must align");
    if predicted.is_empty() {
        return 1.0;
    }
    predicted.iter().zip(actual).filter(|(p, a)| p == a).count() as f64 / predicted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1], &[0, 1]), 1.0);
        assert_eq!(accuracy(&[1, 1], &[0, 1]), 0.5);
        assert_eq!(accuracy(&[], &[]), 1.0);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_lengths_panic() {
        let _ = accuracy(&[0], &[0, 1]);
    }
}
