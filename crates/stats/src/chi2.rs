//! Pearson's chi-squared test of independence.
//!
//! Mutual information measures *how much* two columns depend on each
//! other; the chi-squared test says whether the observed dependency could
//! plausibly be sampling noise. Blaeu computes dependencies on samples, so
//! significance filtering keeps spurious edges out of sparse dependency
//! graphs.

use crate::contingency::ContingencyTable;

/// Result of a chi-squared independence test.
#[derive(Debug, Clone, PartialEq)]
pub struct Chi2Test {
    /// The chi-squared statistic.
    pub statistic: f64,
    /// Degrees of freedom `(rows − 1)(cols − 1)`.
    pub dof: usize,
    /// Upper-tail p-value `P(X² ≥ statistic)`.
    pub p_value: f64,
}

impl Chi2Test {
    /// True when independence is rejected at significance `alpha`.
    pub fn significant(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Regularized lower incomplete gamma function `P(s, x)`, via the series
/// expansion for `x < s + 1` and the continued fraction otherwise
/// (Numerical Recipes §6.2). Accurate to ~1e-10 over the range used here.
fn gamma_p(s: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    let ln_gamma_s = ln_gamma(s);
    if x < s + 1.0 {
        // Series: P(s,x) = x^s e^-x / Γ(s) Σ x^n / (s(s+1)…(s+n))
        let mut term = 1.0 / s;
        let mut sum = term;
        let mut denom = s;
        for _ in 0..500 {
            denom += 1.0;
            term *= x / denom;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        (sum * (s * x.ln() - x - ln_gamma_s).exp()).clamp(0.0, 1.0)
    } else {
        // Continued fraction for Q(s,x); P = 1 − Q.
        let mut b = x + 1.0 - s;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - s);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (s * x.ln() - x - ln_gamma_s).exp() * h;
        (1.0 - q).clamp(0.0, 1.0)
    }
}

/// Natural log of the gamma function (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Upper-tail p-value of the chi-squared distribution with `dof` degrees
/// of freedom at `statistic`.
fn chi2_p_value(statistic: f64, dof: usize) -> f64 {
    if dof == 0 {
        return 1.0;
    }
    (1.0 - gamma_p(dof as f64 / 2.0, statistic / 2.0)).clamp(0.0, 1.0)
}

/// Runs the chi-squared test of independence on a contingency table.
///
/// Rows/columns with zero marginals contribute neither cells nor degrees
/// of freedom. An empty table (or one with a single non-empty row or
/// column) yields statistic 0 with p-value 1.
pub fn chi2_test(table: &ContingencyTable) -> Chi2Test {
    let total = table.total();
    let (nx, ny) = table.shape();
    let xm = table.x_marginals();
    let ym = table.y_marginals();
    let live_x = xm.iter().filter(|&&m| m > 0).count();
    let live_y = ym.iter().filter(|&&m| m > 0).count();
    if total == 0 || live_x <= 1 || live_y <= 1 {
        return Chi2Test {
            statistic: 0.0,
            dof: 0,
            p_value: 1.0,
        };
    }
    let total_f = total as f64;
    let mut statistic = 0.0;
    for (x, &mx) in xm.iter().enumerate().take(nx) {
        if mx == 0 {
            continue;
        }
        for (y, &my) in ym.iter().enumerate().take(ny) {
            if my == 0 {
                continue;
            }
            let expected = mx as f64 * my as f64 / total_f;
            let observed = table.count(x, y) as f64;
            statistic += (observed - expected) * (observed - expected) / expected;
        }
    }
    let dof = (live_x - 1) * (live_y - 1);
    Chi2Test {
        statistic,
        dof,
        p_value: chi2_p_value(statistic, dof),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::DiscreteColumn;

    fn dc(codes: Vec<Option<u32>>, cardinality: usize) -> DiscreteColumn {
        DiscreteColumn::from_options(codes, cardinality)
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn chi2_p_value_reference_points() {
        // Classic table values: χ²(3.841, 1) ≈ 0.05; χ²(5.991, 2) ≈ 0.05;
        // χ²(6.635, 1) ≈ 0.01.
        assert!((chi2_p_value(3.841, 1) - 0.05).abs() < 1e-3);
        assert!((chi2_p_value(5.991, 2) - 0.05).abs() < 1e-3);
        assert!((chi2_p_value(6.635, 1) - 0.01).abs() < 1e-3);
        // Extremes.
        assert_eq!(chi2_p_value(0.0, 3), 1.0);
        assert!(chi2_p_value(1000.0, 3) < 1e-10);
        assert_eq!(chi2_p_value(5.0, 0), 1.0);
    }

    #[test]
    fn independent_data_not_significant() {
        // Perfectly independent 2×2 layout.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for x in 0..2u32 {
            for y in 0..2u32 {
                for _ in 0..50 {
                    xs.push(Some(x));
                    ys.push(Some(y));
                }
            }
        }
        let ct = ContingencyTable::from_codes(&dc(xs, 2), &dc(ys, 2));
        let t = chi2_test(&ct);
        assert!(t.statistic < 1e-9);
        assert_eq!(t.dof, 1);
        assert!(!t.significant(0.05));
        assert!((t.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dependent_data_significant() {
        // Y = X for 100 rows: maximal dependence.
        let xs: Vec<Option<u32>> = (0..100).map(|i| Some(i % 2)).collect();
        let ct = ContingencyTable::from_codes(&dc(xs.clone(), 2), &dc(xs, 2));
        let t = chi2_test(&ct);
        assert!((t.statistic - 100.0).abs() < 1e-9, "N for a perfect 2x2");
        assert!(t.significant(0.001));
    }

    #[test]
    fn degenerate_tables() {
        // Single live column.
        let xs: Vec<Option<u32>> = (0..20).map(|i| Some(i % 4)).collect();
        let ys: Vec<Option<u32>> = vec![Some(0); 20];
        let ct = ContingencyTable::from_codes(&dc(xs, 4), &dc(ys, 3));
        let t = chi2_test(&ct);
        assert_eq!(t.dof, 0);
        assert_eq!(t.p_value, 1.0);
        // Empty table.
        let ct = ContingencyTable::from_codes(&dc(vec![None], 2), &dc(vec![Some(0)], 2));
        assert_eq!(chi2_test(&ct).p_value, 1.0);
    }

    #[test]
    fn empty_marginals_excluded_from_dof() {
        // Declared cardinality 5 but only 2 live levels per side.
        let xs: Vec<Option<u32>> = (0..40).map(|i| Some((i % 2) * 4)).collect();
        let ys: Vec<Option<u32>> = (0..40).map(|i| Some((i % 2) * 3)).collect();
        let ct = ContingencyTable::from_codes(&dc(xs, 5), &dc(ys, 5));
        let t = chi2_test(&ct);
        assert_eq!(t.dof, 1, "only live levels count");
        assert!(t.significant(0.001));
    }

    #[test]
    fn gamma_p_monotone_in_x() {
        let mut prev = 0.0;
        for i in 1..40 {
            let v = gamma_p(2.5, i as f64 * 0.5);
            assert!(v >= prev - 1e-12);
            assert!((0.0..=1.0).contains(&v));
            prev = v;
        }
    }
}
