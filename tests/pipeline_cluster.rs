//! End-to-end cluster-model pipeline: blobs → k-means → cluster-model →
//! deviation. The paper treats cluster-models as a special case of
//! dt-models (Section 2.4); these tests exercise the box-overlay-with-
//! remainders GCR on real clusterings.

use focus::cluster::{KMeans, KMeansParams};
use focus::core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn blobs(centers: &[(f64, f64)], per: usize, spread: f64, seed: u64) -> Table {
    let schema = Arc::new(Schema::new(vec![
        Schema::numeric("x"),
        Schema::numeric("y"),
    ]));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Table::new(schema);
    for &(cx, cy) in centers {
        for _ in 0..per {
            t.push_row(&[
                Value::Num(cx + (rng.gen::<f64>() - 0.5) * spread),
                Value::Num(cy + (rng.gen::<f64>() - 0.5) * spread),
            ]);
        }
    }
    t
}

fn model(data: &Table, k: usize, seed: u64) -> ClusterModel {
    KMeans::new(KMeansParams::new(k).seed(seed))
        .fit(data, Parallelism::Global)
        .to_model(data)
}

#[test]
fn same_blobs_deviate_less_than_shifted_blobs() {
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let centers = [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0)];
    let shifted = [(6.0, 6.0), (26.0, 6.0), (6.0, 26.0)];
    let d1 = blobs(&centers, 150, 4.0, 1);
    let d_same = blobs(&centers, 150, 4.0, 2);
    let d_shift = blobs(&shifted, 150, 4.0, 3);

    let m1 = model(&d1, 3, 1);
    let m_same = model(&d_same, 3, 2);
    let m_shift = model(&d_shift, 3, 3);

    let dev_same = deviate::<ClusterFamily>(&m1, &d1, &m_same, &d_same, f, g, par);
    let dev_shift = deviate::<ClusterFamily>(&m1, &d1, &m_shift, &d_shift, f, g, par);
    assert!(
        dev_shift.value > dev_same.value,
        "shifted {} vs same {}",
        dev_shift.value,
        dev_same.value
    );
}

#[test]
fn identical_clusterings_deviate_zero() {
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let d = blobs(&[(0.0, 0.0), (30.0, 30.0)], 100, 3.0, 5);
    let m = model(&d, 2, 7);
    let dev = deviate::<ClusterFamily>(&m, &d, &m, &d, f, g, par);
    assert_eq!(dev.value, 0.0);
}

#[test]
fn gcr_regions_are_disjoint_boxes() {
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let d1 = blobs(&[(0.0, 0.0), (15.0, 15.0)], 120, 6.0, 9);
    let d2 = blobs(&[(5.0, 5.0), (20.0, 20.0)], 120, 6.0, 10);
    let m1 = model(&d1, 2, 9);
    let m2 = model(&d2, 2, 10);
    let dev = deviate::<ClusterFamily>(&m1, &d1, &m2, &d2, f, g, par);
    for (i, a) in dev.gcr.iter().enumerate() {
        for b in &dev.gcr[i + 1..] {
            assert!(a.intersect(b).is_none(), "GCR regions must be disjoint");
        }
    }
    // Remainder decomposition preserves mass: each original cluster's
    // selectivity equals the sum over the GCR pieces inside it.
    for (ci, cluster) in m1.clusters().iter().enumerate() {
        let inside: f64 = dev
            .gcr
            .iter()
            .zip(&dev.raw1)
            .filter(|(r, _)| r.intersect(cluster).is_some_and(|x| &x == *r))
            .map(|(_, m)| *m / d1.len() as f64)
            .sum();
        assert!(
            (inside - m1.measures()[ci]).abs() < 1e-9,
            "cluster {ci}: {inside} vs {}",
            m1.measures()[ci]
        );
    }
}

#[test]
fn focussed_cluster_deviation_restricts_to_region() {
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let d1 = blobs(&[(0.0, 0.0), (40.0, 40.0)], 100, 4.0, 11);
    let d2 = blobs(&[(0.0, 0.0), (48.0, 48.0)], 100, 4.0, 12);
    let m1 = model(&d1, 2, 11);
    let m2 = model(&d2, 2, 12);
    let schema = d1.schema();
    // The low blob is shared; the high blob moved. Focus on each half.
    let low = BoxBuilder::new(schema).lt("x", 20.0).lt("y", 20.0).build();
    let high = BoxBuilder::new(schema).ge("x", 20.0).ge("y", 20.0).build();
    let dev_low = deviate_focussed::<ClusterFamily>(&m1, &d1, &m2, &d2, &low, f, g, par);
    let dev_high = deviate_focussed::<ClusterFamily>(&m1, &d1, &m2, &d2, &high, f, g, par);
    assert!(
        dev_high.value > dev_low.value,
        "moved blob {} vs stable blob {}",
        dev_high.value,
        dev_low.value
    );
}
