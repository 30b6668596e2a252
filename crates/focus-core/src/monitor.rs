//! Change monitoring: misclassification error and the chi-squared statistic
//! as FOCUS special cases (Section 5.2).
//!
//! The monitoring question — "by how much does the old model misrepresent
//! the new data?" — keeps the *old* structural component and measures the
//! new dataset against it. Two classical answers fall out of FOCUS:
//!
//! * **Misclassification error** (Theorem 5.2):
//!   `ME_T(D2) = ½ · δ(f_a, g_sum)( ⟨Γ_T, σ(Γ_T, D2)⟩, ⟨Γ_T, σ(Γ_T, D2^T)⟩ )`
//!   where `D2^T` is `D2` with every class label replaced by the tree's
//!   prediction.
//! * **Chi-squared goodness of fit** (Proposition 5.1): the `X²` statistic
//!   with expected counts from `D1`'s measures and observed counts from
//!   `D2`, i.e. `δ(f_χ², g_sum)` over the old structure.

use crate::data::LabeledTable;
use crate::deviation::deviation_fixed;
use crate::diff::{AggFn, DiffFn};
use crate::model::{count_partition, DtModel};
use focus_exec::{map_chunks, Parallelism};

/// Minimum rows per worker chunk for the prediction scans.
const SCAN_GRAIN: usize = focus_exec::DEFAULT_GRAIN;

/// The misclassification error of a dt-model on a dataset: the fraction of
/// rows whose true label differs from the model's majority-class
/// prediction. The prediction scan fans out over `par` worker threads.
/// Per-chunk error counts merge by `u64` addition, so the rate is
/// bit-identical to a sequential scan for any thread count.
pub fn misclassification_error(model: &DtModel, data: &LabeledTable, par: Parallelism) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let wrong: u64 = map_chunks(par, data.len(), SCAN_GRAIN, |range| {
        range
            .filter(|&r| model.predict(data.table.row(r)) != data.labels[r])
            .count() as u64
    })
    .into_iter()
    .sum();
    wrong as f64 / data.len() as f64
}

/// The *predicted dataset* `D2^T`: `D2` with every class label replaced by
/// the model's prediction (Section 5.2.1).
pub fn predicted_dataset(model: &DtModel, data: &LabeledTable) -> LabeledTable {
    let mut out = LabeledTable::new(std::sync::Arc::clone(data.table.schema()), data.n_classes);
    for (row, _) in data.rows() {
        out.push_row(row, model.predict(row));
    }
    out
}

/// Misclassification error computed *through the deviation measure*, per
/// Theorem 5.2. Numerically identical to [`misclassification_error`]; kept
/// as an executable witness of the theorem (and unit-tested as such).
pub fn me_via_deviation(model: &DtModel, data: &LabeledTable) -> f64 {
    let predicted = predicted_dataset(model, data);
    let k = model.n_classes();
    let counts_true = count_partition(data, model.leaves(), k, Parallelism::Global);
    let counts_pred = count_partition(&predicted, model.leaves(), k, Parallelism::Global);
    0.5 * deviation_fixed(
        &counts_true,
        &counts_pred,
        data.len() as u64,
        predicted.len() as u64,
        DiffFn::Absolute,
        AggFn::Sum,
        Parallelism::Global,
    )
}

/// The chi-squared goodness-of-fit statistic of Proposition 5.1: cells are
/// the `(leaf, class)` regions of the tree built on `D1`; expected
/// selectivities come from the model's (D1-derived) measures; observed
/// counts from scanning `D2`. Cells with zero expected count contribute the
/// constant `c` (0.5 is the customary choice).
///
/// The measure scan and the per-cell aggregation fan out over `par` worker
/// threads. The per-cell `f_χ²` values come back in cell order and are
/// summed sequentially, so the statistic is bit-identical to a sequential
/// computation for any thread count.
pub fn chi_squared_statistic(model: &DtModel, d2: &LabeledTable, c: f64, par: Parallelism) -> f64 {
    let k = model.n_classes();
    let observed = count_partition(d2, model.leaves(), k, par);
    let n1 = model.n_rows() as f64;
    let n2 = d2.len() as f64;
    let f = DiffFn::ChiSquared { c };
    let per_cell = crate::deviation::eval_regions_par(par, observed.len(), |i| {
        // Expected measure = model measure (selectivity w.r.t. D1) × n1.
        f.eval(model.measures()[i] * n1, observed[i] as f64, n1, n2)
    });
    per_cell.into_iter().sum()
}

/// Result of a chi-squared goodness-of-fit test against a dt-model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquaredFit {
    /// The statistic `X²`.
    pub statistic: f64,
    /// Degrees of freedom used for the asymptotic p-value
    /// (`cells − 1`, the classical choice for a fully specified model).
    pub dof: f64,
    /// Asymptotic p-value `P(χ²_dof > statistic)`. **Caveat** (Section
    /// 5.2.2): when many cells have expected counts below 5 this asymptotic
    /// value is unreliable — use the bootstrap in [`crate::qualify`] instead.
    pub p_value: f64,
}

/// Runs the chi-squared goodness-of-fit test with the asymptotic reference
/// distribution. See [`ChiSquaredFit::p_value`] for the applicability
/// caveat; the bootstrap path is in [`crate::qualify`].
pub fn chi_squared_test(model: &DtModel, d2: &LabeledTable, c: f64) -> ChiSquaredFit {
    let statistic = chi_squared_statistic(model, d2, c, Parallelism::Global);
    let cells = model.leaves().len() * model.n_classes() as usize;
    let dof = (cells.max(2) - 1) as f64;
    let p_value = focus_stats::ChiSquared::new(dof).sf(statistic);
    ChiSquaredFit {
        statistic,
        dof,
        p_value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Schema, Value};
    use crate::model::induce_dt_measures;
    use crate::region::BoxBuilder;
    use std::sync::Arc;

    fn fixture() -> (Arc<Schema>, LabeledTable, LabeledTable, DtModel) {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("age")]));
        let mut d1 = LabeledTable::new(Arc::clone(&schema), 2);
        for i in 0..100 {
            let age = i as f64;
            d1.push_row(&[Value::Num(age)], u32::from(age < 30.0));
        }
        // D2's boundary moved to 50: rows aged 30..50 are now class 1, which
        // the D1 tree will misclassify.
        let mut d2 = LabeledTable::new(Arc::clone(&schema), 2);
        for i in 0..100 {
            let age = i as f64;
            d2.push_row(&[Value::Num(age)], u32::from(age < 50.0));
        }
        let t = induce_dt_measures(
            vec![
                BoxBuilder::new(&schema).lt("age", 30.0).build(),
                BoxBuilder::new(&schema).ge("age", 30.0).build(),
            ],
            &d1,
        );
        (schema, d1, d2, t)
    }

    #[test]
    fn me_counts_misrouted_band() {
        let (_s, d1, d2, t) = fixture();
        assert_eq!(misclassification_error(&t, &d1, Parallelism::Global), 0.0);
        // Exactly the 20 rows aged 30..50 are wrong in D2.
        assert!((misclassification_error(&t, &d2, Parallelism::Global) - 0.20).abs() < 1e-12);
    }

    #[test]
    fn theorem_5_2_me_equals_half_deviation() {
        let (_s, d1, d2, t) = fixture();
        for data in [&d1, &d2] {
            let direct = misclassification_error(&t, data, Parallelism::Global);
            let via = me_via_deviation(&t, data);
            assert!(
                (direct - via).abs() < 1e-12,
                "Theorem 5.2 violated: {direct} vs {via}"
            );
        }
    }

    #[test]
    fn predicted_dataset_labels_match_predictions() {
        let (_s, _d1, d2, t) = fixture();
        let pred = predicted_dataset(&t, &d2);
        assert_eq!(pred.len(), d2.len());
        for (row, label) in pred.rows() {
            assert_eq!(label, t.predict(row));
        }
        // ME of the model on its own predictions is zero.
        assert_eq!(misclassification_error(&t, &pred, Parallelism::Global), 0.0);
    }

    #[test]
    fn chi_squared_zero_shift_small_statistic() {
        let (_s, d1, _d2, t) = fixture();
        // D2 = D1: observed selectivities equal expectations; the only
        // contributions are the c-cells for the two empty (leaf, class)
        // regions.
        let x2 = chi_squared_statistic(&t, &d1, 0.5, Parallelism::Global);
        assert!((x2 - 1.0).abs() < 1e-9, "got {x2}");
    }

    #[test]
    fn chi_squared_grows_with_shift() {
        let (_s, d1, d2, t) = fixture();
        let same = chi_squared_statistic(&t, &d1, 0.5, Parallelism::Global);
        let shifted = chi_squared_statistic(&t, &d2, 0.5, Parallelism::Global);
        // Manual: the only populated drifting cell is (leaf ≥30, class 0),
        // whose expected selectivity is 0.7 but observed 0.5:
        // 100·(0.2)²/0.7 ≈ 5.714, plus the two 0.5 c-cells.
        assert!(
            (shifted - (0.5 + 0.5 + 100.0 * 0.04 / 0.7)).abs() < 1e-9,
            "got {shifted}"
        );
        assert!(shifted > same + 5.0);
    }

    #[test]
    fn chi_squared_test_p_values() {
        let (_s, d1, d2, t) = fixture();
        let fit_same = chi_squared_test(&t, &d1, 0.5);
        let fit_shift = chi_squared_test(&t, &d2, 0.5);
        assert!(fit_same.p_value > 0.3, "p = {}", fit_same.p_value);
        assert!(
            fit_shift.p_value < fit_same.p_value / 5.0,
            "p = {} vs {}",
            fit_shift.p_value,
            fit_same.p_value
        );
        assert_eq!(fit_same.dof, 3.0);
    }

    #[test]
    fn me_on_empty_dataset_is_zero() {
        let (s, _d1, _d2, t) = fixture();
        let empty = LabeledTable::new(s, 2);
        assert_eq!(
            misclassification_error(&t, &empty, Parallelism::Global),
            0.0
        );
    }
}
