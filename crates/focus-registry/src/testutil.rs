//! Shared fixtures for the crate's unit tests.

use crate::{Registry, SnapshotEntry};
use focus_core::data::TransactionSet;
use focus_core::family::LitsFamily;
use focus_mining::{Apriori, AprioriParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded 8-item dataset; `skew` tilts item probabilities so different
/// skews yield measurably different support profiles (high δ* pairs)
/// while equal skews stay close (low δ* pairs).
pub fn random_dataset(seed: u64, n: usize, skew: f64) -> TransactionSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = TransactionSet::new(8);
    for _ in 0..n {
        let t: Vec<u32> = (0..8u32)
            .filter(|&i| rng.gen::<f64>() < 0.15 + skew * (i as f64 / 8.0) * 0.4)
            .collect();
        ts.push(t);
    }
    ts
}

/// Mines `data` at `minsup` (the CLI's miner settings) and adds the
/// snapshot as `name`.
pub fn add_lits<'r>(
    reg: &'r mut Registry,
    name: &str,
    data: &TransactionSet,
    minsup: f64,
) -> std::io::Result<&'r SnapshotEntry> {
    let model = Apriori::new(
        AprioriParams::with_minsup(minsup)
            .max_len(10)
            .min_count_floor(2),
    )
    .mine(data);
    reg.add_snapshot::<LitsFamily>(name, data, &model)
}
