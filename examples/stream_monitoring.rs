//! Streaming change detection — the paper's sales-analyst scenario
//! (Section 1) as a running monitor: weekly transaction batches arrive; the
//! analyst only wants to re-analyze when the data characteristics have
//! *significantly* changed.
//!
//! Demonstrates the `ChangeMonitor`: bootstrap-calibrated alarm threshold
//! (Section 3.4), full mining pipeline as the deviation oracle, and
//! re-baselining after a confirmed regime change.
//!
//! Run with: `cargo run --release --example stream_monitoring`

use focus::core::prelude::*;
use focus::data::assoc::{AssocGen, AssocGenParams};
use focus::mining::{Apriori, AprioriParams};

fn main() {
    // The shop's historical snapshot and its buying-pattern process.
    let regular = AssocGen::new(AssocGenParams::small(), 7);
    let reference = regular.generate(4000, 0);

    // Deviation oracle: mine both sides, compare with δ(f_a, g_sum).
    let miner = Apriori::new(AprioriParams::with_minsup(0.03).min_count_floor(3));
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let pipeline = move |a: &TransactionSet, b: &TransactionSet| {
        let ma = miner.mine(a);
        let mb = miner.mine(b);
        deviate::<LitsFamily>(&ma, a, &mb, b, f, g, par).value
    };

    // Calibrate: the alarm fires only if a weekly batch deviates more than
    // 99% of same-process batches would.
    let mut monitor =
        ChangeMonitor::new(reference, 800, 0.99, 39, 11, par, pipeline).with_rebaseline();
    println!("calibrated alarm threshold: {:.3}", monitor.threshold());

    // Six quiet weeks, then the assortment changes (longer patterns), then
    // the new regime persists.
    let mut shifted_params = AssocGenParams::small();
    shifted_params.avg_pattern_len = 7.0;
    let shifted = AssocGen::new(shifted_params, 8);

    let mut alarms = Vec::new();
    for week in 0..10 {
        let batch = if week < 6 {
            regular.generate(800, 100 + week)
        } else {
            shifted.generate(800, 200 + week)
        };
        let verdict = monitor.observe(&batch);
        println!(
            "week {week:2}: δ = {:.3} (threshold {:.3}) {}",
            verdict.deviation,
            verdict.threshold,
            if verdict.drifted { "⚠ DRIFT" } else { "ok" }
        );
        if verdict.drifted {
            alarms.push(week);
        }
    }

    println!("\nalarms at weeks: {alarms:?}");
    assert!(
        alarms.contains(&6),
        "the regime change at week 6 must be flagged"
    );
    assert!(
        !alarms.contains(&1) && !alarms.contains(&4),
        "quiet weeks must stay quiet"
    );
    // Re-baselining: the monitor re-anchors on the new regime within a
    // few batches (a freshly-adopted 800-transaction reference is noisier
    // than the original 4000-transaction baseline, so a couple of
    // follow-up alarms while the threshold settles are expected).
    let late: Vec<_> = alarms.iter().filter(|&&w| w > 6).collect();
    assert!(
        late.len() <= 2,
        "monitor failed to adapt to the new regime: {alarms:?}"
    );
    assert!(
        !alarms.contains(&9),
        "by week 9 the monitor must treat the new regime as normal"
    );
}
