//! Difference and aggregate functions (Section 3.3.2, Definition 3.7).
//!
//! The deviation measure is parameterized by a *difference function* `f`
//! applied per region and an *aggregate function* `g` combining the
//! per-region differences. The paper's instantiations:
//!
//! * `f_a` — absolute difference of selectivities. "Concentrates on the
//!   absolute changes in support."
//! * `f_s` — scaled difference: the absolute difference divided by the mean
//!   selectivity, so "noticing an itemset for the first time" (0% → 5%)
//!   outweighs a slight change in an already-significant itemset
//!   (50% → 55%).
//! * `f_χ²` — the chi-squared cell contribution (Proposition 5.1), which
//!   lets the classical goodness-of-fit statistic be read out of FOCUS.
//!
//! and `g ∈ {sum, max}`. Both `f` and `g` take *absolute* measures plus the
//! dataset sizes (`f : I⁴₊ → R₊`), because some instantiations (notably χ²)
//! need absolute counts, not just selectivities.

/// A difference function `f(v1, v2, |D1|, |D2|) → R₊` over the absolute
/// measures `v1, v2` of one region w.r.t. two datasets of sizes
/// `|D1|, |D2|`.
#[derive(Debug, Clone, Copy)]
pub enum DiffFn {
    /// `f_a`: absolute difference of selectivities, `|v1/n1 − v2/n2|`.
    Absolute,
    /// `f_s`: scaled difference — absolute difference divided by the mean
    /// selectivity; `0` when both measures are `0`.
    Scaled,
    /// `f_χ²`: the chi-squared cell `n2 · (v1/n1 − v2/n2)² / (v1/n1)`, with
    /// the constant `c` substituted when the expected selectivity `v1/n1`
    /// is zero (the standard "add a small constant" practice the paper
    /// adopts from D'Agostino & Stephens).
    ChiSquared {
        /// Value used for cells with zero expected count (0.5 is the
        /// customary choice).
        c: f64,
    },
    /// An arbitrary user-supplied difference function.
    Custom(fn(f64, f64, f64, f64) -> f64),
}

impl DiffFn {
    /// Evaluates the difference of one region's measures.
    ///
    /// `v1`, `v2` are absolute counts of the region in the two datasets;
    /// `n1`, `n2` the dataset sizes.
    ///
    /// Empty datasets (`n = 0`) are treated as having selectivity 0 in
    /// every region, so every built-in difference function stays finite:
    /// the branch guards below test the *selectivities*, not the raw
    /// counts, which keeps `f_s` and `f_χ²` out of their `0/0` corners
    /// when one side is empty.
    pub fn eval(&self, v1: f64, v2: f64, n1: f64, n2: f64) -> f64 {
        debug_assert!(v1 >= 0.0 && v2 >= 0.0 && n1 >= 0.0 && n2 >= 0.0);
        let s1 = if n1 > 0.0 { v1 / n1 } else { 0.0 };
        let s2 = if n2 > 0.0 { v2 / n2 } else { 0.0 };
        match self {
            DiffFn::Absolute => (s1 - s2).abs(),
            DiffFn::Scaled => {
                if s1 + s2 > 0.0 {
                    (s1 - s2).abs() / ((s1 + s2) / 2.0)
                } else {
                    0.0
                }
            }
            DiffFn::ChiSquared { c } => {
                if s1 > 0.0 {
                    n2 * (s1 - s2) * (s1 - s2) / s1
                } else {
                    *c
                }
            }
            DiffFn::Custom(f) => f(v1, v2, n1, n2),
        }
    }
}

/// An aggregate function `g : P(R₊) → R₊` combining per-region differences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Sum of the per-region differences (the paper's primary choice).
    Sum,
    /// Maximum per-region difference.
    Max,
}

impl AggFn {
    /// Aggregates an iterator of per-region differences. The empty
    /// aggregate is `+0` for both instantiations (two models with no regions
    /// do not deviate). Both fold from `+0.0`: `Iterator::sum` starts from
    /// `-0.0`, which would print an empty sum as `-0.000000`.
    pub fn eval<I: IntoIterator<Item = f64>>(&self, diffs: I) -> f64 {
        match self {
            AggFn::Sum => diffs.into_iter().fold(0.0, |acc, d| acc + d),
            AggFn::Max => diffs.into_iter().fold(0.0, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_difference() {
        // Selectivities 0.5 and 0.1 out of 100/200 rows.
        let f = DiffFn::Absolute;
        assert!((f.eval(50.0, 20.0, 100.0, 200.0) - 0.4).abs() < 1e-12);
        assert_eq!(f.eval(0.0, 0.0, 100.0, 200.0), 0.0);
    }

    #[test]
    fn scaled_difference_weights_novelty() {
        // The paper's motivating pair: X1 moves 50% → 55%, X2 moves 0% → 5%.
        let f = DiffFn::Scaled;
        let x1 = f.eval(50.0, 55.0, 100.0, 100.0);
        let x2 = f.eval(0.0, 5.0, 100.0, 100.0);
        assert!(
            x2 > x1,
            "scaled difference must rank the newly-appearing itemset higher"
        );
        // X2: |0 − 0.05| / 0.025 = 2; X1: 0.05 / 0.525 ≈ 0.0952.
        assert!((x2 - 2.0).abs() < 1e-12);
        assert!((x1 - 0.05 / 0.525).abs() < 1e-12);
    }

    #[test]
    fn scaled_difference_zero_when_both_absent() {
        assert_eq!(DiffFn::Scaled.eval(0.0, 0.0, 10.0, 10.0), 0.0);
    }

    #[test]
    fn chi_squared_cell() {
        // E-selectivity 0.25, O-selectivity 0.35, n2 = 200:
        // 200 · (0.1)² / 0.25 = 8.
        let f = DiffFn::ChiSquared { c: 0.5 };
        assert!((f.eval(25.0, 70.0, 100.0, 200.0) - 8.0).abs() < 1e-9);
        // Zero expected count falls back to c.
        assert_eq!(f.eval(0.0, 70.0, 100.0, 200.0), 0.5);
    }

    #[test]
    fn chi_squared_matches_textbook_form() {
        // X² = Σ (O − E)² / E with E = s1·n2 and O = v2. One cell:
        let n1 = 50.0;
        let n2 = 80.0;
        let v1 = 10.0; // s1 = 0.2, E = 16
        let v2 = 24.0; // O = 24
        let textbook = (24.0 - 16.0_f64).powi(2) / 16.0;
        let cell = DiffFn::ChiSquared { c: 0.5 }.eval(v1, v2, n1, n2);
        assert!((cell - textbook).abs() < 1e-9, "{cell} vs {textbook}");
    }

    #[test]
    fn custom_function() {
        fn halved(v1: f64, v2: f64, _n1: f64, _n2: f64) -> f64 {
            (v1 - v2).abs() / 2.0
        }
        let f = DiffFn::Custom(halved);
        assert_eq!(f.eval(10.0, 4.0, 1.0, 1.0), 3.0);
    }

    #[test]
    fn aggregates() {
        let xs = [0.4, 0.1, 0.4, 0.2, 0.15];
        assert!((AggFn::Sum.eval(xs.iter().copied()) - 1.25).abs() < 1e-12);
        assert_eq!(AggFn::Max.eval(xs.iter().copied()), 0.4);
        // `== 0.0` also holds for -0.0: check the sign bit too.
        for g in [AggFn::Sum, AggFn::Max] {
            let empty = g.eval(std::iter::empty());
            assert_eq!(empty.to_bits(), 0.0f64.to_bits(), "{g:?} of nothing is +0");
        }
        assert!(AggFn::Sum.eval([0.0, 0.0]).is_sign_positive());
    }

    #[test]
    fn zero_sized_datasets_do_not_nan() {
        for f in [DiffFn::Absolute, DiffFn::Scaled] {
            let v = f.eval(0.0, 0.0, 0.0, 0.0);
            assert!(v.is_finite());
        }
    }

    #[test]
    fn one_empty_side_stays_finite_for_every_builtin() {
        // Regression: with n1 = 0 but v1 > 0 (a model whose structure came
        // from elsewhere, measured against an empty dataset), f_s used to
        // hit 0/0 and f_χ² divided by a zero expectation.
        for f in [
            DiffFn::Absolute,
            DiffFn::Scaled,
            DiffFn::ChiSquared { c: 0.5 },
        ] {
            for (v1, n1, v2, n2) in [
                (3.0, 0.0, 5.0, 10.0),
                (3.0, 0.0, 0.0, 0.0),
                (0.0, 0.0, 5.0, 10.0),
                (4.0, 8.0, 2.0, 0.0),
            ] {
                let v = f.eval(v1, v2, n1, n2);
                assert!(v.is_finite(), "{f:?} on ({v1},{v2},{n1},{n2}) = {v}");
            }
        }
        // An empty side behaves as selectivity 0: the absolute difference
        // degenerates to the other side's selectivity.
        assert_eq!(DiffFn::Absolute.eval(7.0, 5.0, 0.0, 10.0), 0.5);
        // χ² with zero expected selectivity falls back to the constant c.
        assert_eq!(DiffFn::ChiSquared { c: 0.5 }.eval(7.0, 5.0, 0.0, 10.0), 0.5);
    }
}
