//! Windowed change monitoring — the paper's motivating application
//! (Section 1: "a sales analyst monitoring a dataset may want to analyze
//! the data thoroughly only if the current snapshot differs significantly
//! from previously analyzed snapshots"), packaged as a reusable component.
//!
//! A [`ChangeMonitor`] holds a *reference* dataset and its model-induction
//! pipeline (any `Fn(dataset) → deviation`-style closure pair). Each
//! incoming block is scored with the FOCUS deviation against the
//! reference; the alarm threshold is calibrated once by bootstrapping the
//! null distribution (Section 3.4), so the monitor raises only on
//! statistically significant drift. On alarm, the monitor can re-baseline
//! to the new block (`rebaseline = true`), tracking slow concept drift.
//!
//! The monitor keeps no record of past verdicts: [`ChangeMonitor::observe`]
//! returns each block's verdict, and a caller that wants a history keeps
//! one.

use crate::data::{resample_indices, TransactionSet};
use focus_exec::Parallelism;
use focus_stats::bootstrap::null_distribution;

/// Verdict for one monitored block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockVerdict {
    /// Sequence number of the block (0-based).
    pub index: usize,
    /// The deviation of the block from the current reference.
    pub deviation: f64,
    /// Calibrated alarm threshold in force when the block was scored.
    pub threshold: f64,
    /// True if the deviation exceeded the threshold.
    pub drifted: bool,
}

/// A calibrated drift monitor over transaction blocks.
///
/// Generic over the deviation pipeline `F: Fn(&TransactionSet,
/// &TransactionSet) -> f64` — typically "mine both, compute
/// `δ(f_a, g_sum)`". The pipeline must be `Fn + Sync`: calibration runs
/// one full pipeline per bootstrap replicate, and the replicates fan out
/// over worker threads.
pub struct ChangeMonitor<F>
where
    F: Fn(&TransactionSet, &TransactionSet) -> f64 + Sync,
{
    reference: TransactionSet,
    pipeline: F,
    /// Alarm quantile in the bootstrap null (e.g. 0.99).
    quantile: f64,
    /// Bootstrap replicates for calibration.
    reps: usize,
    /// Expected block size (calibration resamples this many transactions).
    block_size: usize,
    seed: u64,
    threshold: f64,
    /// Re-baseline to the offending block after an alarm.
    rebaseline: bool,
    /// Worker threads for the calibration fan-out.
    parallelism: Parallelism,
    /// Blocks observed so far — the source of verdict indices and
    /// re-baseline seeds.
    observed: usize,
}

impl<F> ChangeMonitor<F>
where
    F: Fn(&TransactionSet, &TransactionSet) -> f64 + Sync,
{
    /// Creates and calibrates a monitor.
    ///
    /// * `reference` — the baseline snapshot;
    /// * `block_size` — expected size of each monitored block;
    /// * `quantile` — null quantile for the alarm (0.99 ⇒ 1% false-alarm
    ///   rate by construction);
    /// * `reps` — bootstrap replicates for the calibration;
    /// * `parallelism` — worker threads for the calibration fan-out (also
    ///   used by re-baseline recalibrations); thresholds are bit-identical
    ///   for every setting;
    /// * `pipeline` — the model-induction + deviation closure.
    pub fn new(
        reference: TransactionSet,
        block_size: usize,
        quantile: f64,
        reps: usize,
        seed: u64,
        parallelism: Parallelism,
        pipeline: F,
    ) -> Self {
        assert!(!reference.is_empty(), "reference must be non-empty");
        assert!(
            (0.5..1.0).contains(&quantile),
            "quantile must be in [0.5, 1)"
        );
        assert!(reps >= 10, "need at least 10 replicates to calibrate");
        assert!(block_size > 0);
        let threshold = calibrate_threshold(
            &reference,
            block_size,
            quantile,
            reps,
            seed,
            parallelism,
            &pipeline,
        );
        Self {
            reference,
            pipeline,
            quantile,
            reps,
            block_size,
            seed,
            threshold,
            rebaseline: false,
            parallelism,
            observed: 0,
        }
    }

    /// Enables re-baselining: after an alarm the offending block becomes
    /// the new reference and the threshold is recalibrated.
    pub fn with_rebaseline(mut self) -> Self {
        self.rebaseline = true;
        self
    }

    /// The current alarm threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Total number of blocks scored over the monitor's lifetime.
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Scores one block and returns its verdict.
    pub fn observe(&mut self, block: &TransactionSet) -> BlockVerdict {
        let deviation = (self.pipeline)(&self.reference, block);
        let drifted = deviation > self.threshold;
        let verdict = BlockVerdict {
            index: self.observed,
            deviation,
            threshold: self.threshold,
            drifted,
        };
        self.observed += 1;
        if drifted && self.rebaseline {
            self.reference = block.clone();
            self.threshold = calibrate_threshold(
                &self.reference,
                self.block_size,
                self.quantile,
                self.reps,
                self.seed ^ self.observed as u64,
                self.parallelism,
                &self.pipeline,
            );
        }
        verdict
    }
}

/// Bootstraps the null distribution "reference vs same-process block" and
/// returns its `quantile` as the alarm threshold, with the replicates
/// fanned out over `par` worker threads.
///
/// Each replicate runs the full model-induction pipeline on a pseudo-block
/// resampled from the reference, so the fan-out dominates calibration
/// cost. The replicates come from [`null_distribution`], whose draws
/// depend only on `(seed, i)` for replicate `i` — never on the thread
/// count — so the threshold is **bit-identical** however many workers ran
/// the calibration.
pub fn calibrate_threshold<F>(
    reference: &TransactionSet,
    block_size: usize,
    quantile: f64,
    reps: usize,
    seed: u64,
    par: Parallelism,
    pipeline: &F,
) -> f64
where
    F: Fn(&TransactionSet, &TransactionSet) -> f64 + Sync,
{
    assert!(!reference.is_empty(), "reference must be non-empty");
    assert!(reps >= 1, "need at least one replicate to calibrate");
    assert!(block_size > 0, "block size must be positive");
    // Same contract as `ChangeMonitor::new`: an alarm threshold below
    // the null median makes no statistical sense.
    assert!(
        (0.5..1.0).contains(&quantile),
        "quantile must be in [0.5, 1)"
    );
    let mut null = null_distribution(reps, seed, par, |rng| {
        let idx = resample_indices(reference.len(), block_size, rng);
        pipeline(reference, &reference.subset(&idx))
    });
    // The `pos`-th smallest under the total order: the value a full sort
    // would put there, bit for bit.
    let pos = ((quantile * null.len() as f64).ceil() as usize).clamp(1, null.len()) - 1;
    *null.select_nth_unstable_by(pos, f64::total_cmp).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The parallelism the monitors below calibrate at.
    const PAR: Parallelism = Parallelism::Global;

    /// Item-frequency deviation: a cheap stand-in for the full mining
    /// pipeline in tests.
    fn freq_deviation(a: &TransactionSet, b: &TransactionSet) -> f64 {
        let hist = |d: &TransactionSet| {
            let mut h = vec![0.0f64; d.n_items() as usize];
            for t in d.iter() {
                for &i in t {
                    h[i as usize] += 1.0;
                }
            }
            let n = d.len().max(1) as f64;
            h.iter_mut().for_each(|x| *x /= n);
            h
        };
        let ha = hist(a);
        let hb = hist(b);
        ha.iter().zip(&hb).map(|(x, y)| (x - y).abs()).sum()
    }

    fn block(seed: u64, n: usize, p0: f64) -> TransactionSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ts = TransactionSet::new(6);
        for _ in 0..n {
            let mut t = Vec::new();
            if rng.gen::<f64>() < p0 {
                t.push(0);
            }
            if rng.gen::<f64>() < 0.4 {
                t.push(1);
            }
            if rng.gen::<f64>() < 0.2 {
                t.push(2);
            }
            ts.push(t);
        }
        ts
    }

    #[test]
    fn quiet_stream_raises_no_alarm() {
        let reference = block(1, 2000, 0.5);
        let mut mon = ChangeMonitor::new(reference, 400, 0.99, 50, 7, PAR, freq_deviation);
        let mut alarms = 0;
        for i in 0..10 {
            if mon.observe(&block(100 + i, 400, 0.5)).drifted {
                alarms += 1;
            }
        }
        assert!(alarms <= 1, "{alarms} false alarms on a quiet stream");
        assert_eq!(mon.observed(), 10);
    }

    #[test]
    fn drifting_block_raises_alarm() {
        let reference = block(1, 2000, 0.5);
        let mut mon = ChangeMonitor::new(reference, 400, 0.99, 50, 7, PAR, freq_deviation);
        assert!(!mon.observe(&block(50, 400, 0.5)).drifted);
        let v = mon.observe(&block(51, 400, 0.95));
        assert!(v.drifted, "dev {} ≤ threshold {}", v.deviation, v.threshold);
    }

    #[test]
    fn rebaseline_adapts_to_the_new_regime() {
        let reference = block(1, 2000, 0.2);
        let mut mon =
            ChangeMonitor::new(reference, 500, 0.99, 50, 7, PAR, freq_deviation).with_rebaseline();
        // Regime change: p0 jumps to 0.9 and stays there.
        assert!(mon.observe(&block(60, 500, 0.9)).drifted);
        // After re-baselining, further 0.9-blocks are business as usual.
        let follow = mon.observe(&block(61, 500, 0.9));
        assert!(
            !follow.drifted,
            "post-rebaseline block flagged: dev {} thr {}",
            follow.deviation, follow.threshold
        );
    }

    #[test]
    fn without_rebaseline_the_drift_keeps_alarming() {
        let reference = block(1, 2000, 0.2);
        let mut mon = ChangeMonitor::new(reference, 500, 0.99, 50, 7, PAR, freq_deviation);
        assert!(mon.observe(&block(60, 500, 0.9)).drifted);
        assert!(mon.observe(&block(61, 500, 0.9)).drifted);
    }

    #[test]
    fn threshold_scales_with_quantile() {
        let reference = block(3, 2000, 0.5);
        let strict = ChangeMonitor::new(reference.clone(), 400, 0.99, 50, 7, PAR, freq_deviation);
        let lax = ChangeMonitor::new(reference, 400, 0.8, 50, 7, PAR, freq_deviation);
        assert!(strict.threshold() >= lax.threshold());
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn rejects_bad_quantile() {
        let reference = block(1, 100, 0.5);
        ChangeMonitor::new(reference, 10, 1.5, 50, 7, PAR, freq_deviation);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0.5, 1)")]
    fn calibration_shares_the_monitor_quantile_contract() {
        // Regression: `calibrate_threshold` used to accept [0, 1)
        // while the monitor constructor demanded [0.5, 1).
        let reference = block(1, 100, 0.5);
        calibrate_threshold(
            &reference,
            10,
            0.2,
            10,
            7,
            Parallelism::Sequential,
            &freq_deviation,
        );
    }

    #[test]
    #[should_panic(expected = "bootstrap replicate 0")]
    fn nan_pipeline_names_the_offending_replicate() {
        let reference = block(1, 100, 0.5);
        calibrate_threshold(
            &reference,
            10,
            0.9,
            10,
            7,
            Parallelism::Sequential,
            &|_: &TransactionSet, _: &TransactionSet| f64::NAN,
        );
    }
}
