//! Incremental (DRed retract) deletion versus from-scratch re-evaluation.
//!
//! The other half of the `pcs-service` serving cost model: once a program is
//! materialized, retracting a batch of base facts should cost the support
//! cone it touches, not a whole re-evaluation of the surviving EDB.
//! `scratch` measures the from-scratch evaluation of the shrunk database;
//! `retract` measures cloning the materialized relations (the bench's own
//! set-up for each iteration — a live session mutates its writer replica in
//! place) plus the DRed over-delete, pinned re-derivation round, and resumed
//! fixpoint.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pcs_bench::workload;
use pcs_core::programs;
use pcs_engine::{EvalOptions, Evaluator, UpdateBatch};

fn bench_deletion(c: &mut Criterion) {
    let mut group = c.benchmark_group("deletion");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    let program = programs::flights();
    for (cities, legs, batch) in [(60usize, 120usize, 4usize), (100, 200, 8)] {
        let base = workload::random_flights_database(cities, legs, 0xC0FFEE);
        let deletions = workload::flights_remove_legs(&base, batch, 0xD00D);
        let mut surviving = base.clone();
        assert_eq!(surviving.remove_facts(&deletions), batch);
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let materialized = evaluator.evaluate(&base);
        assert_eq!(
            evaluator
                .apply(
                    materialized.relations.clone(),
                    UpdateBatch::retracting(deletions.clone()),
                    &surviving
                )
                .total_facts(),
            evaluator.evaluate(&surviving).total_facts(),
            "retract and scratch must agree before timing them"
        );

        group.bench_with_input(BenchmarkId::new("scratch", legs), &surviving, |b, db| {
            b.iter(|| black_box(&evaluator).evaluate(black_box(db)));
        });
        group.bench_with_input(
            BenchmarkId::new("retract", legs),
            &materialized.relations,
            |b, relations| {
                b.iter(|| {
                    black_box(&evaluator).apply(
                        black_box(relations.clone()),
                        UpdateBatch::retracting(deletions.clone()),
                        &surviving,
                    )
                });
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_deletion);
criterion_main!(benches);
