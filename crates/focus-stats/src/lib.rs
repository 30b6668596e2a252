//! Statistical substrate for the FOCUS framework.
//!
//! The FOCUS paper (Ganti et al., PODS 1999) leans on three pieces of
//! classical statistics that this crate provides from scratch:
//!
//! * the **bootstrap** ([`bootstrap`]) used by the qualification procedure of
//!   Section 3.4 to estimate the null distribution of deviation values and by
//!   Section 5.2.2 to calibrate the chi-squared statistic when the standard
//!   tables are inapplicable. [`null_distribution`] is the one seeded
//!   per-replicate fan-out behind both qualifications in `focus-core`
//!   (`qualify` and `qualify_chi_squared`);
//! * the **Wilcoxon two-sample rank-sum test** ([`wilcoxon`]) used by the
//!   sample-size study of Section 6 to decide whether a larger sample is
//!   significantly more representative;
//! * the **normal distribution** ([`dist`], built on [`special`]) that
//!   turns the Wilcoxon statistic into a significance level.
//!
//! It also provides the random samplers ([`sample`]) required by the
//! synthetic data generators (Poisson, exponential, normal) so that the
//! workspace only depends on the `rand` core crate, and a small kit of
//! descriptive statistics ([`describe`]).
//!
//! Everything is deterministic given a seed and has no external dependencies
//! beyond `rand`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bootstrap;
pub mod describe;
pub mod dist;
pub mod sample;
pub mod special;
pub mod wilcoxon;

pub use bootstrap::{null_distribution, significance_percent, BootstrapResult};
pub use describe::{mean, median, pearson, percentile};
pub use dist::Normal;
pub use focus_exec::Parallelism;
pub use sample::{Exponential, NormalSampler, Poisson};
pub use wilcoxon::{rank_sum, Alternative, WilcoxonResult};
