//! The [`SnapshotFamily`] trait: how each model family's snapshots live on
//! disk.
//!
//! [`focus_core::family::ModelFamily`] captures the *mathematics* a family
//! must provide (GCR, measure extension, the optional δ* bound); this
//! trait adds the *plumbing* a [`Registry`](crate::Registry) needs — which
//! [`crate::binfmt`] codecs persist the family's datasets and models,
//! which file extensions its artifacts use, and which summary statistics
//! its manifest line records. All three of the paper's families implement it, so one
//! generic registry handles lits-, dt- and cluster-snapshots alike.

use focus_core::data::{LabeledTable, Table, TransactionSet};
use focus_core::family::{ClusterFamily, DtFamily, LitsFamily, ModelFamily};
use focus_core::region::BoxRegion;

/// The model family a snapshot belongs to, as recorded in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnapshotKind {
    /// Frequent-itemset models over transaction data.
    Lits,
    /// Decision-tree models over labelled tables.
    Dt,
    /// Cluster models over plain tables.
    Cluster,
}

impl SnapshotKind {
    /// The manifest/CLI spelling of the kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            SnapshotKind::Lits => "lits",
            SnapshotKind::Dt => "dt",
            SnapshotKind::Cluster => "cluster",
        }
    }

    /// Parses a manifest/CLI spelling.
    pub fn parse(s: &str) -> Option<SnapshotKind> {
        match s {
            "lits" => Some(SnapshotKind::Lits),
            "dt" => Some(SnapshotKind::Dt),
            "cluster" => Some(SnapshotKind::Cluster),
            _ => None,
        }
    }
}

impl std::fmt::Display for SnapshotKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A [`ModelFamily`] whose snapshots a [`Registry`](crate::Registry) can
/// persist and reload.
pub trait SnapshotFamily: ModelFamily {
    /// The manifest kind tag of this family's snapshots.
    const KIND: SnapshotKind;
    /// File extension of persisted datasets.
    const DATA_EXT: &'static str;
    /// File extension of persisted models.
    const MODEL_EXT: &'static str;

    /// Encodes a dataset in the binary columnar format of
    /// [`crate::binfmt`].
    fn encode_dataset(data: &Self::Dataset) -> Vec<u8>;
    /// Decodes a dataset encoded by [`SnapshotFamily::encode_dataset`];
    /// corruption surfaces as a named [`crate::binfmt::BinError`] wrapped
    /// in `InvalidData`.
    fn decode_dataset(bytes: &[u8]) -> std::io::Result<Self::Dataset>;
    /// Encodes a model in the binary format; `data` supplies the schema
    /// where the model does not carry one (dt and cluster). A model the
    /// format cannot represent (a classful cluster region) is rejected
    /// with `InvalidInput`.
    fn encode_model(model: &Self::Model, data: &Self::Dataset) -> std::io::Result<Vec<u8>>;
    /// Decodes a model encoded by [`SnapshotFamily::encode_model`].
    fn decode_model(bytes: &[u8]) -> std::io::Result<Self::Model>;
    /// Why `data` cannot be scanned against `model` — another schema or
    /// class count than the model's — or `None` when it can. A snapshot's
    /// two artifacts are written from one dataset, so only a damaged or
    /// hand-assembled registry disagrees; scanning it anyway would count
    /// rows in no region.
    fn data_mismatch(model: &Self::Model, data: &Self::Dataset) -> Option<String>;

    /// The minsup recorded in the manifest (`Some` for lits only).
    fn model_minsup(model: &Self::Model) -> Option<f64>;
    /// Number of structural regions recorded in the manifest (itemsets,
    /// leaves, clusters).
    fn model_regions(model: &Self::Model) -> u64;
}

impl SnapshotFamily for LitsFamily {
    const KIND: SnapshotKind = SnapshotKind::Lits;
    const DATA_EXT: &'static str = "txns";
    const MODEL_EXT: &'static str = "lits";

    fn encode_dataset(data: &TransactionSet) -> Vec<u8> {
        crate::binfmt::encode_transactions(data)
    }

    fn decode_dataset(bytes: &[u8]) -> std::io::Result<TransactionSet> {
        Ok(crate::binfmt::decode_transactions(bytes)?)
    }

    fn encode_model(model: &Self::Model, _data: &TransactionSet) -> std::io::Result<Vec<u8>> {
        Ok(crate::binfmt::encode_lits_model(model))
    }

    fn decode_model(bytes: &[u8]) -> std::io::Result<Self::Model> {
        Ok(crate::binfmt::decode_lits_model(bytes)?)
    }

    fn data_mismatch(_model: &Self::Model, _data: &TransactionSet) -> Option<String> {
        // An item outside the dataset's universe supports nothing.
        None
    }

    fn model_minsup(model: &Self::Model) -> Option<f64> {
        Some(model.minsup())
    }

    fn model_regions(model: &Self::Model) -> u64 {
        model.len() as u64
    }
}

impl SnapshotFamily for DtFamily {
    const KIND: SnapshotKind = SnapshotKind::Dt;
    const DATA_EXT: &'static str = "tbl";
    const MODEL_EXT: &'static str = "dt";

    fn encode_dataset(data: &LabeledTable) -> Vec<u8> {
        crate::binfmt::encode_labeled_table(data)
    }

    fn decode_dataset(bytes: &[u8]) -> std::io::Result<LabeledTable> {
        Ok(crate::binfmt::decode_labeled_table(bytes)?)
    }

    fn encode_model(model: &Self::Model, data: &LabeledTable) -> std::io::Result<Vec<u8>> {
        Ok(crate::binfmt::encode_dt_model(model, data.table.schema()))
    }

    fn decode_model(bytes: &[u8]) -> std::io::Result<Self::Model> {
        let (model, _schema) = crate::binfmt::decode_dt_model(bytes)?;
        Ok(model)
    }

    fn data_mismatch(model: &Self::Model, data: &LabeledTable) -> Option<String> {
        if model.n_classes() != data.n_classes {
            return Some(format!(
                "{} vs {} classes",
                model.n_classes(),
                data.n_classes
            ));
        }
        let full = BoxRegion::full(data.table.schema());
        model.leaves().first()?.schema_mismatch(&full)
    }

    fn model_minsup(_model: &Self::Model) -> Option<f64> {
        None
    }

    fn model_regions(model: &Self::Model) -> u64 {
        model.leaves().len() as u64
    }
}

impl SnapshotFamily for ClusterFamily {
    const KIND: SnapshotKind = SnapshotKind::Cluster;
    const DATA_EXT: &'static str = "rows";
    const MODEL_EXT: &'static str = "clu";

    fn encode_dataset(data: &Table) -> Vec<u8> {
        crate::binfmt::encode_table(data)
    }

    fn decode_dataset(bytes: &[u8]) -> std::io::Result<Table> {
        Ok(crate::binfmt::decode_table(bytes)?)
    }

    fn encode_model(model: &Self::Model, data: &Table) -> std::io::Result<Vec<u8>> {
        crate::binfmt::encode_cluster_model(model, data.schema())
    }

    fn decode_model(bytes: &[u8]) -> std::io::Result<Self::Model> {
        let (model, _schema) = crate::binfmt::decode_cluster_model(bytes)?;
        Ok(model)
    }

    fn data_mismatch(model: &Self::Model, data: &Table) -> Option<String> {
        let full = BoxRegion::full(data.schema());
        model.clusters().first()?.schema_mismatch(&full)
    }

    fn model_minsup(_model: &Self::Model) -> Option<f64> {
        None
    }

    fn model_regions(model: &Self::Model) -> u64 {
        model.clusters().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_spellings_round_trip() {
        for kind in [SnapshotKind::Lits, SnapshotKind::Dt, SnapshotKind::Cluster] {
            assert_eq!(SnapshotKind::parse(kind.as_str()), Some(kind));
            assert_eq!(format!("{kind}"), kind.as_str());
        }
        assert_eq!(SnapshotKind::parse("nope"), None);
    }

    #[test]
    fn family_artifact_extensions_are_distinct() {
        let exts = [
            <LitsFamily as SnapshotFamily>::DATA_EXT,
            <LitsFamily as SnapshotFamily>::MODEL_EXT,
            <DtFamily as SnapshotFamily>::DATA_EXT,
            <DtFamily as SnapshotFamily>::MODEL_EXT,
            <ClusterFamily as SnapshotFamily>::DATA_EXT,
            <ClusterFamily as SnapshotFamily>::MODEL_EXT,
        ];
        let unique: std::collections::HashSet<&str> = exts.iter().copied().collect();
        assert_eq!(unique.len(), exts.len(), "extensions must not collide");
    }
}
