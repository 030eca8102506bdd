//! Thread-scaling of the parallel semi-naive fixpoint.
//!
//! Each benchmark evaluates the same scaled flights workload with the
//! evaluator at 1, 2, 4, and 8 worker threads.  The parallel
//! evaluator is bit-for-bit identical to the sequential one (see
//! `tests/differential.rs`), so the curves measure pure scheduling overhead
//! versus sharding win: on a multi-core machine the wide derivation rounds
//! of the dense layered network shard across workers, while on a single
//! hardware thread every configuration degenerates to the sequential cost
//! plus a small pool overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pcs_bench::workload;
use pcs_core::programs;
use pcs_engine::{Database, EvalOptions, Evaluator};
use pcs_lang::Program;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn bench_threads(
    group: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    program: &Program,
    db: &Database,
) {
    for threads in THREADS {
        // The default threshold keeps rounds this narrow on the calling
        // thread; 1024 candidates is the break-even of the spawn alone.
        let options = EvalOptions::default()
            .with_threads(threads)
            .with_min_parallel_work(1024);
        let evaluator = Evaluator::new(program, options);
        group.bench_with_input(BenchmarkId::new(label.to_string(), threads), db, |b, db| {
            b.iter(|| black_box(&evaluator).evaluate(black_box(db)));
        });
    }
}

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    let flights = programs::flights();

    // Sparse random networks: the per-iteration rounds are narrow, so this
    // curve mostly shows the worker-pool overhead floor.
    let db = workload::random_flights_database(120, 260, 0xC0FFEE);
    bench_threads(&mut group, "flights_random_260", &flights, &db);

    // Dense layered networks: wide derivation rounds, the sharding target.
    // The closure is exponential in the layer count (every distinct path is
    // a distinct time/cost fact), so these sizes are already heavy.
    let db = workload::layered_flights_database(4, 8, 0xF00D);
    bench_threads(&mut group, "flights_layered_4x8", &flights, &db);

    let db = workload::layered_flights_database(5, 10, 0xF00D);
    bench_threads(&mut group, "flights_layered_5x10", &flights, &db);

    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
