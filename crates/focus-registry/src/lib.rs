//! # focus-registry — snapshot collections and screened deviation matrices
//!
//! Section 4.1.1 of the paper frames δ* as the engine of an *interactive
//! exploratory loop*: an analyst keeps a whole collection of dataset
//! snapshots (daily sales extracts, say), embeds them in a metric space
//! using the model-only upper bound, and pays for an exact two-dataset
//! scan only where the bound says the pair is interesting (the "Time for
//! δ*" column of Figure 13). This crate packages that loop:
//!
//! * [`Registry`] — a directory of named snapshots: each one a persisted
//!   dataset plus its mined model, indexed by a line-oriented manifest.
//!   Artifacts default to diff-friendly plain text (`focus_data::io` +
//!   `focus_core::persist`); production registries can instead choose the
//!   checksummed binary columnar format of [`binfmt`] (loaded zero-copy
//!   via mmap where available) and a hash-sharded directory layout
//!   ([`RegistryLayout`]) that scales to 10⁴–10⁵ snapshots;
//! * [`DeviationMatrix`] — all `N·(N−1)/2` pairwise deviations of a
//!   collection, computed with **two-phase δ* screening**: phase one
//!   evaluates the scan-free upper bound for every pair, phase two runs
//!   the exact data-scan deviation only for pairs whose bound exceeds a
//!   caller threshold. Pairs below the threshold are certifiably
//!   uninteresting (`δ ≤ δ* ≤ threshold`), so pruning them is sound.
//!
//! Both phases fan out over `focus_exec::map_indices` and inherit the
//! workspace-wide determinism contract: results are **bit-identical for
//! any worker-thread count**.
//!
//! Everything is **multi-family**: snapshots are kind-tagged
//! ([`SnapshotKind`]), persistence routes through the [`SnapshotFamily`]
//! trait, and the matrix engine is generic over
//! [`focus_core::family::ModelFamily`] — lits, dt and cluster pairs all
//! screen on their family's model-only δ* bound (leaf-mass for dt,
//! centroid-mass/box-overlap for cluster); screening silently disables
//! itself wherever the dominance argument does not apply.

#![warn(missing_docs)]
// `deny`, not `forbid`: the one mmap module in `binfmt` carries a scoped
// `allow(unsafe_code)` with its safety argument; everything else stays
// unsafe-free.
#![deny(unsafe_code)]

pub mod binfmt;
mod family;
mod matrix;
mod registry;
mod shard;
#[cfg(test)]
mod testutil;

pub use binfmt::{mmap_active, BinError, MappedBytes};
pub use family::{SnapshotFamily, SnapshotKind};
pub use matrix::{deviation_matrix, DeviationMatrix, MatrixError, MatrixParams};
pub use registry::{Registry, SnapshotEntry};
pub use shard::{RegistryLayout, StorageFormat};
