//! The normal distribution.
//!
//! FOCUS uses the standard normal for the large-sample approximation of the
//! Wilcoxon rank-sum test (Section 6). The significance of the chi-squared
//! statistic of Section 5.2.2 comes from the bootstrap
//! (`focus_core::qualify::qualify_chi_squared`), not from the asymptotic
//! tables, which are unreliable when expected counts are small.

use crate::special::{erf, erfc};

/// The standard normal distribution, `N(0, 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal;

impl Normal {
    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
    }

    /// Survival function `P(X > x)`, computed via `erfc` to preserve tail
    /// precision (important for the 99.99%-significance entries in the
    /// paper's Tables 1 and 2).
    pub fn sf(&self, x: f64) -> f64 {
        0.5 * erfc(x / std::f64::consts::SQRT_2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn normal_cdf_reference() {
        let n = Normal;
        close(n.cdf(0.0), 0.5, 1e-12);
        close(n.cdf(1.0), 0.841_344_746_1, 1e-9);
        close(n.cdf(1.959_963_985), 0.975, 1e-9);
        close(n.cdf(-1.0), 1.0 - n.cdf(1.0), 1e-12);
    }

    #[test]
    fn normal_tail_sf() {
        // P(Z > 6) ≈ 9.87e-10; must not collapse to zero.
        let sf = Normal.sf(6.0);
        assert!(sf > 9.0e-10 && sf < 1.1e-9, "sf(6) = {sf}");
    }
}
