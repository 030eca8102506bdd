//! Differential check that the telemetry layer is purely observational: for
//! every rewriting strategy, sequentially and on a 4-thread pool, a run with
//! telemetry fully on (global counter mode plus `EvalOptions::telemetry`) produces exactly
//! the answers and `EvalStats` of a run with telemetry fully off.  The only
//! permitted difference is `IterationStats::wall_nanos`, which is zero with
//! telemetry off and populated with it on.

use pcs_core::{programs, Optimizer, Strategy};
use pcs_engine::{EvalOptions, EvalResult, EvalStats};
use pcs_telemetry::TelemetryMode;
use pcs_transform::Step;

/// Asserts every field of two [`EvalStats`] equal except
/// `IterationStats::wall_nanos` (the one telemetry-dependent field).
fn assert_stats_identical(off: &EvalStats, on: &EvalStats, label: &str) {
    assert_eq!(
        off.iterations.len(),
        on.iterations.len(),
        "{label}: iteration count"
    );
    for (i, (a, b)) in off.iterations.iter().zip(&on.iterations).enumerate() {
        assert_eq!(
            a.derivations, b.derivations,
            "{label}: iter {i} derivations"
        );
        assert_eq!(a.new_facts, b.new_facts, "{label}: iter {i} new facts");
        assert_eq!(a.subsumed, b.subsumed, "{label}: iter {i} subsumed");
        assert_eq!(
            a.delta_facts, b.delta_facts,
            "{label}: iter {i} delta facts"
        );
        assert_eq!(a.records, b.records, "{label}: iter {i} records");
        assert_eq!(
            a.wall_nanos, 0,
            "{label}: iter {i} timed with telemetry off"
        );
    }
    assert_eq!(
        off.facts_per_predicate, on.facts_per_predicate,
        "{label}: facts per predicate"
    );
    assert_eq!(
        off.constraint_facts, on.constraint_facts,
        "{label}: constraint facts"
    );
    assert_eq!(off.resumed, on.resumed, "{label}: resumed flag");
    assert_eq!(off.retracted, on.retracted, "{label}: retracted flag");
    assert_eq!(
        off.removed_facts, on.removed_facts,
        "{label}: removed facts"
    );
}

fn run(
    program: &pcs_lang::Program,
    db: &pcs_engine::Database,
    strategy: &Strategy,
    base: &EvalOptions,
    telemetry: bool,
) -> (EvalResult, Vec<pcs_engine::Fact>) {
    pcs_telemetry::set_mode(if telemetry {
        TelemetryMode::On
    } else {
        TelemetryMode::Off
    });
    let optimized = Optimizer::new(program.clone())
        .strategy(strategy.clone())
        .optimize()
        .expect("optimization succeeds");
    let result = optimized.evaluate_with(db, base.clone().with_telemetry(telemetry));
    let query = optimized
        .program
        .query()
        .expect("example programs carry a query");
    let answers = result.answers(query);
    (result, answers)
}

/// One test function (not one per configuration) because the telemetry mode
/// is process-global: parallel test threads flipping it would race.
#[test]
fn telemetry_changes_no_answers_and_no_stats() {
    let strategies: Vec<(&str, Strategy)> = vec![
        ("original", Strategy::None),
        ("pred,qrp", Strategy::ConstraintRewrite),
        ("mg", Strategy::MagicOnly),
        ("pred,qrp,mg", Strategy::Optimal),
        ("pred", Strategy::Sequence(vec![Step::Pred])),
        ("qrp", Strategy::Sequence(vec![Step::Qrp])),
        ("pred,mg", Strategy::Sequence(vec![Step::Pred, Step::Magic])),
    ];
    let workloads = [
        (
            "flights",
            programs::flights(),
            programs::flights_database(8, 40),
        ),
        (
            "ex71",
            programs::example_71(),
            programs::example_7x_database(40, 12),
        ),
    ];
    let previous = pcs_telemetry::mode();
    for (workload, program, db) in &workloads {
        for (strategy_name, strategy) in &strategies {
            for threads in [1, 4] {
                let base = EvalOptions::default()
                    .with_threads(threads)
                    .with_min_parallel_work(0);
                let label = format!("{workload}/{strategy_name}/{threads}-thread");
                let (off, off_answers) = run(program, db, strategy, &base, false);
                let (on, on_answers) = run(program, db, strategy, &base, true);
                assert_eq!(off_answers, on_answers, "{label}: answers");
                assert_eq!(
                    off.termination, on.termination,
                    "{label}: termination verdict"
                );
                assert_stats_identical(&off.stats, &on.stats, &label);
                assert!(
                    on.stats.iterations.iter().any(|i| i.wall_nanos > 0),
                    "{label}: telemetry on should time at least one iteration"
                );
            }
        }
    }
    pcs_telemetry::set_mode(previous);
}
