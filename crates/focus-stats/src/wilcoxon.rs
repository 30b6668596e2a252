//! Wilcoxon two-sample rank-sum test (Mann–Whitney U), with tie correction.
//!
//! Section 6 of the FOCUS paper compares, for each pair of adjacent sample
//! sizes, two sets of 50 sample-deviation values and reports the significance
//! `100·(1 − α)%` with which the null hypothesis "both sample sizes are
//! equally representative" is rejected (Tables 1 and 2). This module
//! implements the test with the normal approximation, average ranks for
//! ties, the tie-corrected variance, and a continuity correction — the
//! standard large-sample recipe of Bickel & Doksum, the reference the paper
//! cites.

use crate::dist::Normal;

/// The alternative hypothesis for the rank-sum test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alternative {
    /// Sample 1 is stochastically smaller than sample 2.
    Less,
    /// Sample 1 is stochastically greater than sample 2.
    Greater,
    /// The two samples differ in location (either direction).
    TwoSided,
}

/// Result of a Wilcoxon rank-sum test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WilcoxonResult {
    /// Rank-sum statistic `W` of the first sample (sum of its ranks in the
    /// pooled ordering, average ranks for ties).
    pub w: f64,
    /// Normal-approximation z-score (with continuity correction).
    pub z: f64,
    /// p-value under the requested alternative.
    pub p_value: f64,
    /// Convenience: significance as a percentage, `100·(1 − p)`, the way the
    /// paper reports it (e.g. "99.99").
    pub significance_percent: f64,
}

/// Runs the Wilcoxon rank-sum test on two samples.
///
/// Both samples must be non-empty and free of NaNs. Uses the normal
/// approximation, which the paper's n = 50 per group comfortably justifies.
///
/// # Example
///
/// ```
/// use focus_stats::wilcoxon::{rank_sum, Alternative};
/// // SD values for the larger sample size are systematically smaller.
/// let small_sample_sds = [0.9, 1.0, 1.1, 1.2, 0.95, 1.05];
/// let large_sample_sds = [0.5, 0.6, 0.55, 0.65, 0.58, 0.52];
/// let r = rank_sum(&large_sample_sds, &small_sample_sds, Alternative::Less);
/// assert!(r.p_value < 0.01);
/// ```
pub fn rank_sum(sample1: &[f64], sample2: &[f64], alternative: Alternative) -> WilcoxonResult {
    assert!(
        !sample1.is_empty() && !sample2.is_empty(),
        "rank_sum requires non-empty samples"
    );
    let n1 = sample1.len() as f64;
    let n2 = sample2.len() as f64;
    let n = n1 + n2;

    // Pool, sort, assign average ranks.
    let mut pooled: Vec<(f64, usize)> = sample1
        .iter()
        .map(|&x| (x, 0usize))
        .chain(sample2.iter().map(|&x| (x, 1usize)))
        .collect();
    pooled.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN in rank_sum input"));

    let mut w = 0.0; // rank sum of sample 1
    let mut tie_term = 0.0; // Σ (t³ − t) over tie groups
    let mut i = 0;
    while i < pooled.len() {
        let mut j = i;
        while j + 1 < pooled.len() && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let t = (j - i + 1) as f64;
        // Ranks are 1-based; the average rank of positions i..=j.
        let avg_rank = (i as f64 + 1.0 + j as f64 + 1.0) / 2.0;
        for item in &pooled[i..=j] {
            if item.1 == 0 {
                w += avg_rank;
            }
        }
        if t > 1.0 {
            tie_term += t * t * t - t;
        }
        i = j + 1;
    }

    let mean_w = n1 * (n + 1.0) / 2.0;
    // Tie-corrected variance of W.
    let var_w = n1 * n2 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    let sd_w = var_w.max(0.0).sqrt();

    // Degenerate case: all observations equal. No evidence either way.
    if sd_w == 0.0 {
        return WilcoxonResult {
            w,
            z: 0.0,
            p_value: 1.0,
            significance_percent: 0.0,
        };
    }

    // Continuity correction towards the mean.
    let diff = w - mean_w;
    let cc = 0.5 * diff.signum();
    let z = (diff - cc) / sd_w;

    let p_value = match alternative {
        Alternative::Less => Normal.cdf(z),
        Alternative::Greater => Normal.sf(z),
        Alternative::TwoSided => 2.0 * Normal.sf(z.abs()).min(0.5),
    };
    let p_value = p_value.clamp(0.0, 1.0);

    WilcoxonResult {
        w,
        z,
        p_value,
        significance_percent: 100.0 * (1.0 - p_value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn identical_samples_not_significant() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = rank_sum(&xs, &xs, Alternative::TwoSided);
        assert!(r.p_value > 0.9, "p = {}", r.p_value);
    }

    #[test]
    fn clearly_shifted_samples_significant() {
        let a: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..30).map(|i| i as f64 + 100.0).collect();
        let r = rank_sum(&a, &b, Alternative::Less);
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
        assert!(r.significance_percent > 99.99);
        // And the opposite direction is non-significant.
        let r2 = rank_sum(&a, &b, Alternative::Greater);
        assert!(r2.p_value > 0.999);
    }

    #[test]
    fn rank_sum_statistic_small_example() {
        // Sample1 = {1, 3}, sample2 = {2, 4}: ranks of sample1 are 1 and 3.
        let r = rank_sum(&[1.0, 3.0], &[2.0, 4.0], Alternative::TwoSided);
        assert_eq!(r.w, 4.0);
    }

    #[test]
    fn ties_get_average_ranks() {
        // Pooled sorted: 1(s1), 2(s1), 2(s2), 3(s2); the tied 2s take rank 2.5.
        let r = rank_sum(&[1.0, 2.0], &[2.0, 3.0], Alternative::TwoSided);
        assert_eq!(r.w, 1.0 + 2.5);
    }

    #[test]
    fn all_equal_degenerates_gracefully() {
        let r = rank_sum(&[5.0; 10], &[5.0; 10], Alternative::TwoSided);
        assert_eq!(r.p_value, 1.0);
        assert_eq!(r.z, 0.0);
    }

    #[test]
    fn type_i_error_is_controlled() {
        // Under the null (both samples from the same distribution), the
        // rejection rate at α = 0.05 should be ≈ 5%.
        let mut rng = StdRng::seed_from_u64(123);
        let mut rejections = 0;
        let trials = 400;
        for _ in 0..trials {
            let a: Vec<f64> = (0..50).map(|_| rng.gen::<f64>()).collect();
            let b: Vec<f64> = (0..50).map(|_| rng.gen::<f64>()).collect();
            let r = rank_sum(&a, &b, Alternative::TwoSided);
            if r.p_value < 0.05 {
                rejections += 1;
            }
        }
        let rate = rejections as f64 / trials as f64;
        assert!(rate < 0.10, "type-I error rate {rate}");
    }

    #[test]
    fn power_against_small_shift() {
        // The paper's setting: 50 observations per group; a modest shift
        // should be detected with high significance.
        let mut rng = StdRng::seed_from_u64(321);
        let a: Vec<f64> = (0..50).map(|_| rng.gen::<f64>()).collect();
        let b: Vec<f64> = (0..50).map(|_| rng.gen::<f64>() + 0.5).collect();
        let r = rank_sum(&a, &b, Alternative::Less);
        assert!(r.significance_percent > 99.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sample_panics() {
        rank_sum(&[], &[1.0], Alternative::TwoSided);
    }

    #[test]
    fn hand_computed_textbook_example() {
        // Pooled sorted: 60 68 70 75 77 80 82 85 90 92; sample-1 ranks are
        // {2, 5, 7, 8, 10}, so W = 32. With n1 = n2 = 5 and no ties:
        // E[W] = 27.5, Var[W] = 275/12, z = (4.5 − 0.5)/√(275/12) ≈ 0.8356,
        // two-sided p = 2(1 − Φ(0.8356)) ≈ 0.4033.
        let s1 = [68.0, 77.0, 82.0, 85.0, 92.0];
        let s2 = [60.0, 70.0, 75.0, 80.0, 90.0];
        let r = rank_sum(&s1, &s2, Alternative::TwoSided);
        assert_eq!(r.w, 32.0);
        assert!((r.z - 0.8356).abs() < 1e-3, "z = {}", r.z);
        assert!((r.p_value - 0.4033).abs() < 1e-3, "p = {}", r.p_value);
    }

    #[test]
    fn one_sided_p_values_complement() {
        // With the continuity correction, P(less) + P(greater) > 1 by the
        // mass at the observed point; both must still be proper and ordered.
        let a = [1.2, 3.4, 2.2, 5.0, 4.4, 0.9];
        let b = [2.0, 4.1, 3.3, 6.2, 5.7, 2.9];
        let less = rank_sum(&a, &b, Alternative::Less).p_value;
        let greater = rank_sum(&a, &b, Alternative::Greater).p_value;
        assert!(less < greater, "a is shifted left of b");
        assert!((0.0..=1.0).contains(&less) && (0.0..=1.0).contains(&greater));
        assert!((less + greater - 1.0).abs() < 0.25);
    }

    #[test]
    fn tie_correction_shrinks_variance() {
        // Heavy ties reduce Var[W]; with ties the same |W − E[W]| yields a
        // larger |z| than the tie-free variance would give. Check against
        // the closed form: Var = n1 n2/12 · (n+1 − Σ(t³−t)/(n(n−1))).
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [1.0, 2.0, 2.0, 3.0];
        let r = rank_sum(&a, &b, Alternative::TwoSided);
        // Tie groups: three 1s, three 2s, two 3s → Σ(t³−t) = 24+24+6 = 54.
        // Var = 16/12 · (9 − 54/56) = 16/12 · (9 − 27/28) = 10.714285…
        // W(sample1): ranks of the three 1s avg 2, the 2s avg 5, 3s avg 7.5
        // → W = 2 + 2 + 5 + 7.5 = 16.5; E[W] = 18; z = (−1.5+0.5)/√10.714.
        assert_eq!(r.w, 16.5);
        let var: f64 = 16.0 / 12.0 * (9.0 - 54.0 / 56.0);
        let z_expected = (16.5 - 18.0 + 0.5) / var.sqrt();
        assert!(
            (r.z - z_expected).abs() < 1e-12,
            "z = {} vs {}",
            r.z,
            z_expected
        );
    }
}
