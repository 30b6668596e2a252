//! Random-variate samplers used by the synthetic data generators.
//!
//! The IBM Quest association generator (reimplemented in `focus-data`) draws
//! transaction and pattern lengths from a Poisson distribution, pattern
//! weights from an exponential distribution, and corruption levels from a
//! clipped normal. We implement these directly on top of `rand`'s uniform
//! source instead of pulling in `rand_distr`, keeping the dependency set to
//! the approved list.

use rand::Rng;

/// Poisson distribution sampler.
///
/// Uses Knuth's multiplication method, which is exact and fast for the small
/// means used by the generators (mean transaction length 20, mean pattern
/// length 4). For large means (> 30) it falls back to a normal approximation
/// that is adequate for workload synthesis.
#[derive(Debug, Clone, Copy)]
pub struct Poisson {
    mean: f64,
}

impl Poisson {
    /// Creates a Poisson sampler with the given positive mean.
    pub fn new(mean: f64) -> Self {
        assert!(mean > 0.0, "Poisson mean must be positive, got {mean}");
        Self { mean }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.mean < 30.0 {
            let l = (-self.mean).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.gen::<f64>();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            // Normal approximation with continuity correction.
            let normal = NormalSampler::new(self.mean, self.mean.sqrt());
            let v = normal.sample(rng).round();
            if v < 0.0 {
                0
            } else {
                v as u64
            }
        }
    }
}

/// Exponential distribution sampler via inverse transform.
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential sampler with the given positive rate `λ`
    /// (mean `1/λ`).
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "Exponential rate must be positive, got {rate}");
        Self { rate }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 - U avoids ln(0).
        -(1.0 - rng.gen::<f64>()).ln() / self.rate
    }
}

/// Normal distribution sampler via the Box–Muller transform.
#[derive(Debug, Clone, Copy)]
pub struct NormalSampler {
    mu: f64,
    sigma: f64,
}

impl NormalSampler {
    /// Creates a normal sampler with mean `mu` and standard deviation
    /// `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive, got {sigma}");
        Self { mu, sigma }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mu + self.sigma * z
    }

    /// Draws one sample clamped to `[lo, hi]` — the paper's corruption
    /// levels are "normally distributed with mean 0.5 clipped to [0, 1]".
    pub fn sample_clamped<R: Rng + ?Sized>(&self, rng: &mut R, lo: f64, hi: f64) -> f64 {
        self.sample(rng).clamp(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::mean;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 40_000;

    /// Unbiased sample variance (n − 1 denominator); 0.0 for fewer than two
    /// observations.
    fn variance(xs: &[f64]) -> f64 {
        if xs.len() < 2 {
            return 0.0;
        }
        let m = mean(xs);
        xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
    }

    #[test]
    fn variance_basics() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
    }

    #[test]
    fn poisson_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = Poisson::new(4.0);
        let xs: Vec<f64> = (0..N).map(|_| p.sample(&mut rng) as f64).collect();
        let m = mean(&xs);
        let v = variance(&xs);
        assert!((m - 4.0).abs() < 0.08, "mean {m}");
        assert!((v - 4.0).abs() < 0.25, "variance {v}");
    }

    #[test]
    fn poisson_large_mean_normal_branch() {
        let mut rng = StdRng::seed_from_u64(11);
        let p = Poisson::new(100.0);
        let xs: Vec<f64> = (0..N).map(|_| p.sample(&mut rng) as f64).collect();
        let m = mean(&xs);
        assert!((m - 100.0).abs() < 0.5, "mean {m}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let e = Exponential::new(2.0);
        let xs: Vec<f64> = (0..N).map(|_| e.sample(&mut rng)).collect();
        let m = mean(&xs);
        assert!((m - 0.5).abs() < 0.02, "mean {m}");
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn normal_mean_and_sd() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = NormalSampler::new(0.5, 0.1);
        let xs: Vec<f64> = (0..N).map(|_| n.sample(&mut rng)).collect();
        let m = mean(&xs);
        let s = variance(&xs).sqrt();
        assert!((m - 0.5).abs() < 0.005, "mean {m}");
        assert!((s - 0.1).abs() < 0.005, "sd {s}");
    }

    #[test]
    fn normal_clamped_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = NormalSampler::new(0.5, 0.4);
        for _ in 0..1000 {
            let x = n.sample_clamped(&mut rng, 0.0, 1.0);
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn samplers_are_deterministic_per_seed() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = Poisson::new(6.0);
            (0..16).map(|_| p.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }
}
