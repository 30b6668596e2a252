//! Criterion bench B5: support counting — the bitmap reference scan versus
//! the two arms of the lits counting engine (the horizontal walk of a
//! budget-0 `CountSource` and batched counting over a prebuilt tid-bitset
//! index).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use focus_core::model::count_itemsets;
use focus_core::region::Itemset;
use focus_core::source::CountSource;
use focus_core::vertical::{count_itemsets_grouped, VerticalIndex};
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_exec::Parallelism;
use focus_mining::{Apriori, AprioriParams};
use std::hint::black_box;

fn bench_counting(c: &mut Criterion) {
    let gen = AssocGen::new(AssocGenParams::paper(2000, 4.0), 3);
    let data = gen.generate(5_000, 5);
    let model = Apriori::new(AprioriParams::with_minsup(0.008).max_len(10)).mine(&data);
    // Count the frequent pairs (usually the largest level).
    let pairs: Vec<Itemset> = model
        .itemsets()
        .iter()
        .filter(|s| s.len() == 2)
        .cloned()
        .collect();
    let mut group = c.benchmark_group("counting");
    group.bench_with_input(
        BenchmarkId::new("bitmap_scan", pairs.len()),
        &pairs,
        |b, sets| b.iter(|| black_box(count_itemsets(&data, sets, Parallelism::Global))),
    );
    group.bench_with_input(
        BenchmarkId::new("horizontal", pairs.len()),
        &pairs,
        |b, sets| {
            let source = CountSource::borrowed(&data).with_index_budget(0);
            b.iter(|| black_box(source.counts(sets, Parallelism::Global)))
        },
    );
    group.bench_with_input(
        BenchmarkId::new("vertical_warm", pairs.len()),
        &pairs,
        |b, sets| {
            let index = VerticalIndex::build(&data);
            b.iter(|| black_box(count_itemsets_grouped(&index, sets, Parallelism::Global)))
        },
    );
    group.finish();
}

criterion_group!(benches, bench_counting);
criterion_main!(benches);
