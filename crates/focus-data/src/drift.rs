//! Controlled drift injection — workload builders for drift-detection
//! experiments.
//!
//! The paper's evaluation builds drifted datasets by regenerating with
//! different process parameters, or by appending a foreign block (its
//! `D + δ` construction, which is [`TransactionSet::concat`]). The
//! operators here inject one effect at a time instead, so the sensitivity
//! of the deviation measure can be probed in isolation:
//!
//! * [`flip_labels`] — label noise (classification drift without feature
//!   drift);
//! * [`permute_items`] — rename items under a permutation (pure structural
//!   drift: supports are preserved, the itemsets move);
//! * [`dilute_item`] — probabilistically delete one item (support drift in
//!   a single region — the paper's "variation of a single pattern" setting
//!   from the related-work discussion).

use focus_core::data::{LabeledTable, TransactionSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Flips each label with probability `p` (uniformly to another class).
pub fn flip_labels(data: &LabeledTable, p: f64, seed: u64) -> LabeledTable {
    assert!((0.0..=1.0).contains(&p));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = data.clone();
    for label in &mut out.labels {
        if rng.gen::<f64>() < p {
            let mut new = rng.gen_range(0..out.n_classes);
            if out.n_classes > 1 {
                while new == *label {
                    new = rng.gen_range(0..out.n_classes);
                }
            }
            *label = new;
        }
    }
    out
}

/// Renames items under a random permutation of `0..n_items`. Support
/// *values* are exactly preserved; the structural component moves wholesale.
pub fn permute_items(data: &TransactionSet, seed: u64) -> TransactionSet {
    let n = data.n_items();
    let perm = focus_core::data::shuffled((0..n).collect::<Vec<u32>>(), seed);
    let mut out = TransactionSet::new(n);
    for txn in data.iter() {
        out.push(txn.iter().map(|&i| perm[i as usize]).collect());
    }
    out
}

/// Deletes item `item` from each transaction containing it with
/// probability `p` — a single-region support decay.
pub fn dilute_item(data: &TransactionSet, item: u32, p: f64, seed: u64) -> TransactionSet {
    assert!((0.0..=1.0).contains(&p));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = TransactionSet::new(data.n_items());
    for txn in data.iter() {
        let kept: Vec<u32> = txn
            .iter()
            .copied()
            .filter(|&i| i != item || rng.gen::<f64>() >= p)
            .collect();
        out.push(kept);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::{AssocGen, AssocGenParams};
    use crate::classify::{ClassifyFn, ClassifyGen};

    #[test]
    fn flip_labels_rate() {
        let data = ClassifyGen::new(ClassifyFn::F1).generate(2000, 1);
        let noisy = flip_labels(&data, 0.25, 2);
        let flipped = data
            .labels
            .iter()
            .zip(&noisy.labels)
            .filter(|(a, b)| a != b)
            .count();
        let rate = flipped as f64 / data.len() as f64;
        assert!((0.2..0.3).contains(&rate), "rate {rate}");
        // Rows themselves are untouched.
        assert_eq!(data.table, noisy.table);
    }

    #[test]
    fn flip_labels_zero_is_identity() {
        let data = ClassifyGen::new(ClassifyFn::F2).generate(200, 3);
        assert_eq!(flip_labels(&data, 0.0, 4), data);
    }

    #[test]
    fn permute_items_preserves_lengths_and_multiset_of_supports() {
        let gen = AssocGen::new(AssocGenParams::small(), 7);
        let data = gen.generate(500, 8);
        let perm = permute_items(&data, 9);
        assert_eq!(data.len(), perm.len());
        // Per-transaction lengths preserved.
        for (a, b) in data.iter().zip(perm.iter()) {
            assert_eq!(a.len(), b.len());
        }
        // Item-frequency multiset preserved.
        let hist = |d: &TransactionSet| {
            let mut h = vec![0u64; d.n_items() as usize];
            for t in d.iter() {
                for &i in t {
                    h[i as usize] += 1;
                }
            }
            h.sort_unstable();
            h
        };
        assert_eq!(hist(&data), hist(&perm));
    }

    #[test]
    fn dilute_item_reduces_only_that_item() {
        let gen = AssocGen::new(AssocGenParams::small(), 11);
        let data = gen.generate(2000, 12);
        let count = |d: &TransactionSet, item: u32| d.iter().filter(|t| t.contains(&item)).count();
        // Pick the most frequent item to get a reliable signal.
        let target = (0..100u32).max_by_key(|&i| count(&data, i)).unwrap();
        let before = count(&data, target);
        let diluted = dilute_item(&data, target, 0.5, 13);
        let after = count(&diluted, target);
        assert!(after < before, "{after} !< {before}");
        assert!((after as f64) > before as f64 * 0.3);
        // Another item is untouched.
        let other = (target + 1) % 100;
        assert_eq!(count(&data, other), count(&diluted, other));
    }

    #[test]
    fn drift_operators_are_deterministic() {
        let gen = AssocGen::new(AssocGenParams::small(), 17);
        let data = gen.generate(300, 1);
        assert_eq!(permute_items(&data, 5), permute_items(&data, 5));
        assert_eq!(dilute_item(&data, 3, 0.5, 7), dilute_item(&data, 3, 0.5, 7));
    }
}
