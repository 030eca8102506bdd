//! Cost of the rewriting procedures themselves: `Constraint_rewrite`
//! (the `pred, qrp` sequence: Gen/Prop of predicate and QRP constraints) and
//! the constraint magic rewriting, on the paper's programs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pcs_core::programs;
use pcs_transform::{
    apply_sequence, magic_rewrite, MagicOptions, PropagateOptions, CONSTRAINT_REWRITE,
};

fn bench_transformations(c: &mut Criterion) {
    let mut group = c.benchmark_group("transformations");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for (name, program) in [
        ("flights", programs::flights()),
        ("example_41", programs::example_41()),
        ("example_42", programs::example_42()),
        ("example_71", programs::example_71()),
    ] {
        group.bench_function(format!("constraint_rewrite_{name}"), |b| {
            b.iter(|| {
                apply_sequence(
                    black_box(&program),
                    &CONSTRAINT_REWRITE,
                    &PropagateOptions::default(),
                )
                .unwrap()
            });
        });
        group.bench_function(format!("magic_rewrite_{name}"), |b| {
            b.iter(|| {
                magic_rewrite(black_box(&program), &MagicOptions::bound_if_ground()).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_transformations);
criterion_main!(benches);
