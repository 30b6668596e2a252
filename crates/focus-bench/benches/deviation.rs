//! Criterion bench B1: exact deviation δ (one scan of both datasets) versus
//! the scan-free upper bound δ* — the "Time for δ" / "Time for δ*" columns
//! of Figure 13. Expect several orders of magnitude between them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use focus_core::bound::lits_upper_bound;
use focus_core::deviation::deviate;
use focus_core::diff::{AggFn, DiffFn};
use focus_core::family::LitsFamily;
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_exec::Parallelism;
use focus_mining::{Apriori, AprioriParams};
use std::hint::black_box;

fn bench_delta_vs_bound(c: &mut Criterion) {
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let mut group = c.benchmark_group("deviate_lits");
    for &n in &[2_000usize, 10_000] {
        let g1 = AssocGen::new(AssocGenParams::paper(1000, 4.0), 1);
        let g2 = AssocGen::new(AssocGenParams::paper(1200, 4.0), 2);
        let d1 = g1.generate(n, 3);
        let d2 = g2.generate(n, 4);
        let miner = Apriori::new(AprioriParams::with_minsup(0.01).max_len(10));
        let m1 = miner.mine(&d1);
        let m2 = miner.mine(&d2);

        group.bench_with_input(BenchmarkId::new("delta_exact", n), &n, |b, _| {
            b.iter(|| black_box(deviate::<LitsFamily>(&m1, &d1, &m2, &d2, f, g, par).value))
        });
        group.bench_with_input(BenchmarkId::new("delta_star_bound", n), &n, |b, _| {
            b.iter(|| black_box(lits_upper_bound(&m1, &m2, AggFn::Sum)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_delta_vs_bound);
criterion_main!(benches);
