//! Property-based tests (proptest) of the framework's core invariants:
//! region geometry, refinement/GCR laws, metric-like properties of the
//! deviation, Apriori's downward closure, and δ* soundness.

use focus::core::prelude::*;
use focus::mining::{Apriori, AprioriParams};
use focus::registry::binfmt::{
    decode_cluster_model, decode_dt_model, encode_cluster_model, encode_dt_model,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn schema2() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Schema::numeric("x"),
        Schema::numeric("y"),
    ]))
}

/// A random 2-D box with sorted finite bounds.
fn arb_box() -> impl Strategy<Value = (f64, f64, f64, f64)> {
    (0u32..20, 1u32..10, 0u32..20, 1u32..10)
        .prop_map(|(xl, xw, yl, yw)| (xl as f64, (xl + xw) as f64, yl as f64, (yl + yw) as f64))
}

fn make_box(schema: &Arc<Schema>, b: (f64, f64, f64, f64)) -> BoxRegion {
    BoxBuilder::new(schema)
        .range("x", b.0, b.1)
        .range("y", b.2, b.3)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn box_intersection_is_pointwise_and(a in arb_box(), b in arb_box(),
                                         px in 0u32..30, py in 0u32..30) {
        let schema = schema2();
        let ra = make_box(&schema, a);
        let rb = make_box(&schema, b);
        let p = [Value::Num(px as f64 + 0.5), Value::Num(py as f64 + 0.5)];
        let in_both = ra.contains(&p) && rb.contains(&p);
        match ra.intersect(&rb) {
            Some(ri) => prop_assert_eq!(ri.contains(&p), in_both),
            None => prop_assert!(!in_both),
        }
    }

    #[test]
    fn box_subtraction_is_pointwise_andnot(a in arb_box(), b in arb_box(),
                                           px in 0u32..30, py in 0u32..30) {
        let schema = schema2();
        let ra = make_box(&schema, a);
        let rb = make_box(&schema, b);
        let pieces = ra.subtract(&rb);
        let p = [Value::Num(px as f64 + 0.5), Value::Num(py as f64 + 0.5)];
        let expected = ra.contains(&p) && !rb.contains(&p);
        let hits = pieces.iter().filter(|r| r.contains(&p)).count();
        prop_assert_eq!(hits > 0, expected, "coverage mismatch");
        prop_assert!(hits <= 1, "pieces must be disjoint");
        // No piece leaks outside a or into b.
        for piece in &pieces {
            prop_assert!(piece.intersect(&rb).is_none());
        }
    }

    #[test]
    fn overlay_partitions_the_plane(cut_a in 1u32..19, cut_b in 1u32..19,
                                    px in 0u32..20, py in 0u32..20) {
        // Two partitions of the plane (vertical vs horizontal cut); their
        // overlay must contain every probe point exactly once.
        let schema = schema2();
        let pa = vec![
            BoxBuilder::new(&schema).lt("x", cut_a as f64).build(),
            BoxBuilder::new(&schema).ge("x", cut_a as f64).build(),
        ];
        let pb = vec![
            BoxBuilder::new(&schema).lt("y", cut_b as f64).build(),
            BoxBuilder::new(&schema).ge("y", cut_b as f64).build(),
        ];
        let cells = gcr_partition(&pa, &pb);
        let p = [Value::Num(px as f64 + 0.25), Value::Num(py as f64 + 0.25)];
        let hits = cells.iter().filter(|c| c.region.contains(&p)).count();
        prop_assert_eq!(hits, 1);
    }

    #[test]
    fn cluster_gcr_preserves_mass(boxes_a in proptest::collection::vec(arb_box(), 1..4),
                                  boxes_b in proptest::collection::vec(arb_box(), 1..4),
                                  points in proptest::collection::vec((0u32..30, 0u32..30), 20..60)) {
        // For every probe point inside some a-box, the number of GCR pieces
        // containing it is exactly 1 (the GCR refines the union of the
        // a-boxes without double counting)… restricted to points inside
        // the union of a-boxes or b-boxes.
        let schema = schema2();
        let ra: Vec<BoxRegion> = boxes_a.iter().map(|&b| make_box(&schema, b)).collect();
        // Keep a-boxes pairwise disjoint by subtracting earlier ones, as
        // cluster regions are non-overlapping in the paper's model.
        let mut disjoint_a: Vec<BoxRegion> = Vec::new();
        for r in ra {
            let mut pieces = vec![r];
            for d in &disjoint_a {
                pieces = pieces.into_iter().flat_map(|p| p.subtract(d)).collect();
            }
            disjoint_a.extend(pieces);
        }
        let rb: Vec<BoxRegion> = boxes_b.iter().map(|&b| make_box(&schema, b)).collect();
        let mut disjoint_b: Vec<BoxRegion> = Vec::new();
        for r in rb {
            let mut pieces = vec![r];
            for d in &disjoint_b {
                pieces = pieces.into_iter().flat_map(|p| p.subtract(d)).collect();
            }
            disjoint_b.extend(pieces);
        }
        let gcr = gcr_boxes(&disjoint_a, &disjoint_b);
        for (px, py) in points {
            let p = [Value::Num(px as f64 + 0.5), Value::Num(py as f64 + 0.5)];
            let in_a = disjoint_a.iter().any(|r| r.contains(&p));
            let in_b = disjoint_b.iter().any(|r| r.contains(&p));
            let hits = gcr.iter().filter(|r| r.contains(&p)).count();
            prop_assert_eq!(hits == 1, in_a || in_b,
                "point ({}, {}): hits {} in_a {} in_b {}", px, py, hits, in_a, in_b);
            prop_assert!(hits <= 1, "GCR pieces must be disjoint");
        }
    }
}

// ---------------------------------------------------------------------------
// Transaction / mining properties
// ---------------------------------------------------------------------------

fn arb_transactions() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..10, 0..6), 10..60)
}

fn to_set(rows: Vec<Vec<u32>>) -> TransactionSet {
    let mut ts = TransactionSet::new(10);
    for r in rows {
        ts.push(r);
    }
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn apriori_downward_closure(rows in arb_transactions(), minsup in 0.1f64..0.6) {
        let data = to_set(rows);
        let model = Apriori::new(AprioriParams::with_minsup(minsup)).mine(&data);
        for s in model.itemsets() {
            if s.len() < 2 { continue; }
            let sup = model.support_of(s).unwrap();
            for sub in s.proper_subsets() {
                let sub_sup = model.support_of(&sub)
                    .expect("subset of a frequent itemset must be frequent");
                prop_assert!(sub_sup >= sup - 1e-12, "anti-monotonicity violated");
            }
        }
    }

    #[test]
    fn support_counting_monotone_under_union(rows in arb_transactions()) {
        let data = to_set(rows);
        let a = Itemset::from_slice(&[1, 3]);
        let b = Itemset::from_slice(&[3, 5]);
        let u = a.union(&b);
        let counts = count_itemsets(&data, &[a, b, u], Parallelism::Global);
        prop_assert!(counts[2] <= counts[0].min(counts[1]));
    }

    #[test]
    fn deviation_is_symmetric_and_reflexive(rows1 in arb_transactions(),
                                            rows2 in arb_transactions()) {
        let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
        let d1 = to_set(rows1);
        let d2 = to_set(rows2);
        if d1.is_empty() || d2.is_empty() { return Ok(()); }
        let miner = Apriori::new(AprioriParams::with_minsup(0.2));
        let m1 = miner.mine(&d1);
        let m2 = miner.mine(&d2);
        let ab = deviate::<LitsFamily>(&m1, &d1, &m2, &d2, f, g, par).value;
        let ba = deviate::<LitsFamily>(&m2, &d2, &m1, &d1, f, g, par).value;
        prop_assert!((ab - ba).abs() < 1e-12, "symmetry: {} vs {}", ab, ba);
        let aa = deviate::<LitsFamily>(&m1, &d1, &m1, &d1, f, g, par).value;
        prop_assert_eq!(aa, 0.0, "identity");
    }

    #[test]
    fn bound_dominates_deviation(rows1 in arb_transactions(), rows2 in arb_transactions()) {
        let d1 = to_set(rows1);
        let d2 = to_set(rows2);
        if d1.is_empty() || d2.is_empty() { return Ok(()); }
        let miner = Apriori::new(AprioriParams::with_minsup(0.25));
        let m1 = miner.mine(&d1);
        let m2 = miner.mine(&d2);
        for g in [AggFn::Sum, AggFn::Max] {
            let bound = lits_upper_bound(&m1, &m2, g);
            let exact = deviate::<LitsFamily>(&m1, &d1, &m2, &d2, DiffFn::Absolute, g, Parallelism::Global).value;
            prop_assert!(bound >= exact - 1e-12, "{:?}: {} < {}", g, bound, exact);
        }
    }

    #[test]
    fn dt_bound_dominates_deviation(seed1 in 0u64..500, seed2 in 0u64..500,
                                    cut1 in 4u32..16, cut2 in 4u32..16,
                                    ax1 in 0usize..2, ax2 in 0usize..2) {
        // δ* soundness for the dt family: the leaf-mass bound dominates the
        // true deviation under f_a for both aggregates. Equal cuts on the
        // same axis exercise the matched-leaf (exact) path; everything else
        // the telescoping full-mass path.
        let schema = schema2();
        let axes = ["x", "y"];
        let data = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut d = LabeledTable::new(Arc::clone(&schema), 2);
            for _ in 0..120 {
                let x = rng.gen_range(0.0..20.0);
                let y = rng.gen_range(0.0..20.0);
                d.push_row(&[Value::Num(x), Value::Num(y)], u32::from(x + y > 20.0));
            }
            d
        };
        let split = |axis: usize, cut: u32| vec![
            BoxBuilder::new(&schema).lt(axes[axis], cut as f64).build(),
            BoxBuilder::new(&schema).ge(axes[axis], cut as f64).build(),
        ];
        let d1 = data(seed1);
        let d2 = data(seed2 ^ 0x9E37);
        let m1 = induce_dt_measures(split(ax1, cut1), &d1);
        let m2 = induce_dt_measures(split(ax2, cut2), &d2);
        for g in [AggFn::Sum, AggFn::Max] {
            let bound = dt_upper_bound(&m1, &m2, g);
            let exact = deviate::<DtFamily>(&m1, &d1, &m2, &d2, DiffFn::Absolute, g, Parallelism::Global).value;
            prop_assert!(bound >= exact - 1e-12, "{:?}: {} < {}", g, bound, exact);
        }
    }

    #[test]
    fn cluster_bound_dominates_deviation(boxes_a in proptest::collection::vec(arb_box(), 1..4),
                                         boxes_b in proptest::collection::vec(arb_box(), 1..4),
                                         seed1 in 0u64..500, seed2 in 0u64..500) {
        // δ* soundness for the cluster family, under the dominance
        // contract: each model's measures are its boxes' selectivities in
        // the paired dataset, and cluster boxes are pairwise disjoint (the
        // paper's model; enforced by subtraction as in the GCR test).
        let schema = schema2();
        let disjoin = |raw: Vec<(f64, f64, f64, f64)>| {
            let mut out: Vec<BoxRegion> = Vec::new();
            for r in raw.into_iter().map(|b| make_box(&schema, b)) {
                let mut pieces = vec![r];
                for d in &out {
                    pieces = pieces.into_iter().flat_map(|p| p.subtract(d)).collect();
                }
                out.extend(pieces);
            }
            out
        };
        let data = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut d = Table::new(Arc::clone(&schema));
            for _ in 0..100 {
                d.push_row(&[
                    Value::Num(rng.gen_range(0.0..30.0)),
                    Value::Num(rng.gen_range(0.0..30.0)),
                ]);
            }
            d
        };
        let model = |boxes: Vec<BoxRegion>, d: &Table| {
            let n = d.len() as f64;
            let measures: Vec<f64> = boxes
                .iter()
                .map(|b| d.rows().filter(|r| b.contains(r)).count() as f64 / n)
                .collect();
            ClusterModel::new(boxes, measures, d.len() as u64)
        };
        let d1 = data(seed1);
        let d2 = data(seed2 ^ 0xC1u64);
        let m1 = model(disjoin(boxes_a), &d1);
        let m2 = model(disjoin(boxes_b), &d2);
        for g in [AggFn::Sum, AggFn::Max] {
            let bound = cluster_upper_bound(&m1, &m2, g);
            let exact = deviate::<ClusterFamily>(&m1, &d1, &m2, &d2, DiffFn::Absolute, g, Parallelism::Global).value;
            prop_assert!(bound >= exact - 1e-12, "{:?}: {} < {}", g, bound, exact);
        }
    }

    #[test]
    fn fixed_structure_deviation_triangle(c1 in proptest::collection::vec(0u64..50, 6),
                                          c2 in proptest::collection::vec(0u64..50, 6),
                                          c3 in proptest::collection::vec(0u64..50, 6)) {
        // Over one fixed structural component, δ(f_a, g) is a pseudometric:
        // the triangle inequality holds for both aggregates when the three
        // measure components come from equal-sized datasets.
        let n = 100u64;
        for g in [AggFn::Sum, AggFn::Max] {
            let d12 = deviation_fixed(&c1, &c2, n, n, DiffFn::Absolute, g, Parallelism::Global);
            let d23 = deviation_fixed(&c2, &c3, n, n, DiffFn::Absolute, g, Parallelism::Global);
            let d13 = deviation_fixed(&c1, &c3, n, n, DiffFn::Absolute, g, Parallelism::Global);
            prop_assert!(d13 <= d12 + d23 + 1e-12, "{:?}", g);
        }
    }

    #[test]
    fn scaled_difference_bounded_by_two(v1 in 0u64..1000, v2 in 0u64..1000) {
        // f_s = |s1−s2| / ((s1+s2)/2) ≤ 2, with equality when one side is 0.
        let f = DiffFn::Scaled.eval(v1 as f64, v2 as f64, 1000.0, 1000.0);
        prop_assert!(f <= 2.0 + 1e-12);
        prop_assert!(f >= 0.0);
        if v1 == 0 && v2 > 0 {
            prop_assert!((f - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sample_fraction_bounds(rows in arb_transactions(), sf in 0.0f64..1.0, seed in 0u64..100) {
        let data = to_set(rows);
        let sample = data.sample_fraction(sf, seed);
        prop_assert_eq!(sample.len(), ((sf * data.len() as f64).ceil() as usize).min(data.len()));
    }
}

// ---------------------------------------------------------------------------
// Statistics properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn normal_cdf_symmetry(z in -6.0f64..6.0) {
        let n = focus::stats::Normal;
        prop_assert!((n.cdf(z) + n.cdf(-z) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn wilcoxon_p_value_in_unit_interval(
        a in proptest::collection::vec(0.0f64..10.0, 3..30),
        b in proptest::collection::vec(0.0f64..10.0, 3..30),
    ) {
        use focus::stats::wilcoxon::{rank_sum, Alternative};
        for alt in [Alternative::Less, Alternative::Greater, Alternative::TwoSided] {
            let r = rank_sum(&a, &b, alt);
            prop_assert!((0.0..=1.0).contains(&r.p_value), "{:?}: {}", alt, r.p_value);
        }
        // Less and Greater p-values are complementary up to the continuity
        // correction and ties.
        let less = rank_sum(&a, &b, Alternative::Less).p_value;
        let greater = rank_sum(&a, &b, Alternative::Greater).p_value;
        prop_assert!((less + greater - 1.0).abs() < 0.2);
    }
}

// ---------------------------------------------------------------------------
// Persistence properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lits_model_persistence_round_trips(
        entries in proptest::collection::vec(
            (proptest::collection::vec(0u32..20, 1..5), 0.0f64..1.0),
            0..20,
        ),
        minsup in 0.001f64..0.5,
        n in 1u64..1_000_000,
    ) {
        let (itemsets, supports): (Vec<Itemset>, Vec<f64>) = entries
            .into_iter()
            .map(|(items, sup)| (Itemset::new(items), sup))
            .unzip();
        let model = LitsModel::new(itemsets, supports, minsup, n);
        let mut buf = Vec::new();
        write_lits_model(&model, &mut buf).unwrap();
        let back = read_lits_model(buf.as_slice()).unwrap();
        prop_assert_eq!(model, back);
    }

    #[test]
    fn dt_model_persistence_round_trips(
        seed in 0u64..10_000,
        n_attrs in 1usize..4,
        n_leaves in 1usize..5,
        k in 1u32..4,
    ) {
        // Seed-driven generation of an arbitrary dt-model over a mixed
        // schema, deliberately covering the persistence edge cases: empty
        // and full categorical masks and ±inf interval endpoints.
        let mut rng = StdRng::seed_from_u64(seed);
        let attrs = (0..n_attrs)
            .map(|i| {
                if rng.gen::<bool>() {
                    Schema::numeric(&format!("x{i}"))
                } else {
                    Schema::categorical(&format!("c{i}"), rng.gen_range(2u32..6))
                }
            })
            .collect();
        let schema = Arc::new(Schema::new(attrs));
        let leaves: Vec<BoxRegion> = (0..n_leaves)
            .map(|_| BoxRegion {
                constraints: schema
                    .attrs()
                    .iter()
                    .map(|a| match &a.ty {
                        AttrType::Numeric => AttrConstraint::Interval {
                            lo: if rng.gen::<bool>() {
                                f64::NEG_INFINITY
                            } else {
                                rng.gen_range(-50.0f64..0.0)
                            },
                            hi: if rng.gen::<bool>() {
                                f64::INFINITY
                            } else {
                                rng.gen_range(0.0f64..50.0)
                            },
                        },
                        AttrType::Categorical { cardinality } => {
                            AttrConstraint::Cats(match rng.gen_range(0u32..3) {
                                0 => CatMask::empty(*cardinality),
                                1 => CatMask::full(*cardinality),
                                _ => {
                                    let codes: Vec<u32> = (0..*cardinality)
                                        .filter(|_| rng.gen::<bool>())
                                        .collect();
                                    CatMask::of(*cardinality, &codes)
                                }
                            })
                        }
                    })
                    .collect(),
                class: None,
            })
            .collect();
        let measures: Vec<f64> = (0..n_leaves * k as usize)
            .map(|_| rng.gen::<f64>())
            .collect();
        let model = DtModel::new(leaves, k, measures, rng.gen_range(1u64..100_000));

        let bytes = encode_dt_model(&model, &schema);
        let (back, back_schema) = decode_dt_model(&bytes).unwrap();
        prop_assert_eq!(&*back_schema, &*schema);
        prop_assert_eq!(model, back);
    }

    #[test]
    fn cluster_model_persistence_round_trips(
        seed in 0u64..10_000,
        n_attrs in 1usize..4,
        n_clusters in 0usize..5,
    ) {
        // Seed-driven generation of an arbitrary cluster-model over a mixed
        // schema, deliberately covering the persistence edge cases: an
        // *empty* cluster list, degenerate point boxes (a centroid whose
        // cluster collapsed to `lo == hi`), empty/full categorical masks
        // and ±inf interval endpoints.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC1);
        let attrs = (0..n_attrs)
            .map(|i| {
                if rng.gen::<bool>() {
                    Schema::numeric(&format!("x{i}"))
                } else {
                    Schema::categorical(&format!("c{i}"), rng.gen_range(2u32..6))
                }
            })
            .collect();
        let schema = Arc::new(Schema::new(attrs));
        let clusters: Vec<BoxRegion> = (0..n_clusters)
            .map(|_| BoxRegion {
                constraints: schema
                    .attrs()
                    .iter()
                    .map(|a| match &a.ty {
                        AttrType::Numeric => match rng.gen_range(0u32..3) {
                            // Degenerate point box: lo == hi.
                            0 => {
                                let p = rng.gen_range(-10.0f64..10.0);
                                AttrConstraint::Interval { lo: p, hi: p }
                            }
                            1 => AttrConstraint::Interval {
                                lo: f64::NEG_INFINITY,
                                hi: rng.gen_range(0.0f64..50.0),
                            },
                            _ => AttrConstraint::Interval {
                                lo: rng.gen_range(-50.0f64..0.0),
                                hi: f64::INFINITY,
                            },
                        },
                        AttrType::Categorical { cardinality } => {
                            AttrConstraint::Cats(match rng.gen_range(0u32..3) {
                                0 => CatMask::empty(*cardinality),
                                1 => CatMask::full(*cardinality),
                                _ => {
                                    let codes: Vec<u32> = (0..*cardinality)
                                        .filter(|_| rng.gen::<bool>())
                                        .collect();
                                    CatMask::of(*cardinality, &codes)
                                }
                            })
                        }
                    })
                    .collect(),
                class: None,
            })
            .collect();
        // Empty clusters (selectivity 0) happen in real k-means exports.
        let measures: Vec<f64> = (0..n_clusters)
            .map(|_| if rng.gen::<bool>() { 0.0 } else { rng.gen::<f64>() })
            .collect();
        let model = ClusterModel::new(clusters, measures, rng.gen_range(0u64..100_000));

        let bytes = encode_cluster_model(&model, &schema).unwrap();
        let (back, back_schema) = decode_cluster_model(&bytes).unwrap();
        prop_assert_eq!(&*back_schema, &*schema);
        prop_assert_eq!(model, back);
    }

    #[test]
    fn transaction_io_round_trips(rows in arb_transactions()) {
        let data = to_set(rows);
        let mut buf = Vec::new();
        focus::data::write_transactions(&data, &mut buf).unwrap();
        let back = focus::data::read_transactions(buf.as_slice()).unwrap();
        prop_assert_eq!(data, back);
    }

    #[test]
    fn catmask_set_laws(a in proptest::collection::vec(0u32..40, 0..12),
                        b in proptest::collection::vec(0u32..40, 0..12),
                        probe in 0u32..40) {
        let ma = CatMask::of(40, &a);
        let mb = CatMask::of(40, &b);
        let inter = ma.intersect(&mb);
        let diff = ma.difference(&mb);
        prop_assert_eq!(inter.contains(probe), ma.contains(probe) && mb.contains(probe));
        prop_assert_eq!(diff.contains(probe), ma.contains(probe) && !mb.contains(probe));
        // Partition law: a = (a ∩ b) ∪ (a \ b), disjointly.
        prop_assert_eq!(inter.count() + diff.count(), ma.count());
        prop_assert!(inter.intersect(&diff).is_empty());
    }

    #[test]
    fn itemset_subset_relations(a in proptest::collection::vec(0u32..15, 0..6),
                                b in proptest::collection::vec(0u32..15, 0..6)) {
        let sa = Itemset::new(a);
        let sb = Itemset::new(b);
        let union = sa.union(&sb);
        let inter = sa.intersection(&sb);
        // Lattice laws.
        prop_assert!(sa.is_subset_of_sorted(union.items()));
        prop_assert!(inter.is_subset_of_sorted(sa.items()));
        prop_assert!(inter.is_subset_of_sorted(sb.items()));
        prop_assert_eq!(union.len() + inter.len(), sa.len() + sb.len());
    }
}
