//! Incremental (resumed) updates versus from-scratch re-evaluation.
//!
//! The serving cost model behind `pcs-service`: once a program is
//! materialized, an arriving update batch should cost the delta it induces,
//! not a whole re-evaluation of base + updates.  `scratch` measures the
//! from-scratch evaluation of the grown database; `resume` measures cloning
//! the materialized relations (the bench's own set-up for each iteration — a
//! live session mutates its writer replica in place) plus re-entering the
//! fixpoint with the update batch as the seed delta.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pcs_bench::workload;
use pcs_core::programs;
use pcs_engine::{EvalOptions, Evaluator, UpdateBatch};

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    let program = programs::flights();
    for (cities, legs, batch) in [(60usize, 120usize, 4usize), (100, 200, 8)] {
        let base = workload::random_flights_database(cities, legs, 0xC0FFEE);
        let updates = workload::flights_update_legs(cities, batch, 0xBEEF);
        let mut full = base.clone();
        for fact in &updates {
            full.add(fact.clone());
        }
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let materialized = evaluator.evaluate(&base);
        assert_eq!(
            evaluator
                .apply(
                    materialized.relations.clone(),
                    UpdateBatch::inserting(updates.clone()),
                    &base
                )
                .total_facts(),
            evaluator.evaluate(&full).total_facts(),
            "resume and scratch must agree before timing them"
        );

        group.bench_with_input(BenchmarkId::new("scratch", legs), &full, |b, db| {
            b.iter(|| black_box(&evaluator).evaluate(black_box(db)));
        });
        group.bench_with_input(
            BenchmarkId::new("resume", legs),
            &materialized.relations,
            |b, relations| {
                b.iter(|| {
                    black_box(&evaluator).apply(
                        black_box(relations.clone()),
                        UpdateBatch::inserting(updates.clone()),
                        &base,
                    )
                });
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
