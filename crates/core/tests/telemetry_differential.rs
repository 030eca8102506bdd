//! Differential check that the telemetry layer is purely observational: for
//! every rewriting strategy, a run with the process-wide mode on produces
//! exactly the answers and `EvalStats` of a run with it off.  The only
//! permitted difference is `IterationStats::wall_nanos`, which is zero with
//! telemetry off and populated with it on.
//!
//! The mode is also the *single* gate: with it off no phase span is recorded
//! either, with it on every phase an operation passes through is — there is
//! no per-evaluator switch beside `pcs_telemetry::set_mode`.

use pcs_core::{programs, Optimizer, Strategy};
use pcs_engine::{EvalResult, EvalStats, UpdateBatch};
use pcs_telemetry::{Phase, TelemetryMode};
use pcs_transform::Step;

/// Flips the one telemetry switch there is: the process-wide mode.
fn set_telemetry(on: bool) {
    pcs_telemetry::set_mode(if on {
        TelemetryMode::On
    } else {
        TelemetryMode::Off
    });
}

/// How many spans the registry has recorded per phase, in catalog order.
fn phase_counts() -> Vec<u64> {
    pcs_telemetry::PHASES
        .iter()
        .map(|(phase, _)| pcs_telemetry::phase_totals(*phase).0)
        .collect()
}

/// Asserts that between `before` and now exactly the phases in `expected`
/// recorded spans when `telemetry` is on, and none at all when it is off.
fn assert_phases_recorded(before: &[u64], telemetry: bool, expected: &[Phase], label: &str) {
    for ((phase, name), (was, now)) in pcs_telemetry::PHASES
        .iter()
        .zip(before.iter().zip(phase_counts()))
    {
        let grew = now > *was;
        assert_eq!(
            grew,
            telemetry && expected.contains(phase),
            "{label}: phase {name} with telemetry {telemetry}"
        );
    }
}

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
    telemetry: bool,
) -> (EvalResult, Vec<pcs_engine::Fact>) {
    set_telemetry(telemetry);
    let before = phase_counts();
    let optimized = Optimizer::new(program.clone())
        .strategy(strategy.clone())
        .optimize()
        .expect("optimization succeeds");
    let result = optimized.evaluate(db);
    assert_phases_recorded(
        &before,
        telemetry,
        &[
            Phase::Analyze,
            Phase::Rewrite,
            Phase::PlanCompile,
            Phase::Fixpoint,
        ],
        "optimize + evaluate",
    );
    let query = optimized
        .program
        .query()
        .expect("example programs carry a query");
    let answers = result.answers(query);
    (result, answers)
}

/// How many Fourier–Motzkin satisfiability checks one evaluation makes,
/// read from the process-wide counter at its single call site.
fn fm_sat_calls(program: &pcs_lang::Program, db: &pcs_engine::Database, strategy: Strategy) -> u64 {
    pcs_telemetry::set_mode(TelemetryMode::On);
    pcs_telemetry::reset();
    let optimized = Optimizer::new(program.clone())
        .strategy(strategy)
        .optimize()
        .expect("optimization succeeds");
    let result = optimized.evaluate(db);
    assert!(result.termination.is_fixpoint());
    pcs_telemetry::flush_thread();
    pcs_telemetry::counter(pcs_telemetry::Counter::FmSatCalls)
}

/// The FM contract of the slot-compiled join: a derivation over ground
/// facts whose atoms all become ground is decided by plain arithmetic, so a
/// pure-ground program never reaches Fourier–Motzkin; only derivations that
/// really leave a non-ground residual do.
fn assert_fm_runs_only_for_non_ground_residuals() {
    let closure = pcs_lang::parse_program(
        "path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\n\
         ?- path(X, Y).",
    )
    .expect("the closure program parses");
    let mut edges = pcs_engine::Database::new();
    edges
        .add_facts_str("edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 2).")
        .expect("the edges parse");
    assert_eq!(fm_sat_calls(&closure, &edges, Strategy::None), 0);
    let flights = programs::flights_database(8, 40);
    assert_eq!(
        fm_sat_calls(&programs::flights(), &flights, Strategy::ConstraintRewrite),
        0,
        "flights under pred,qrp computes only ground facts"
    );
    // p is a constraint fact; q's derivation joins it and stays symbolic.
    let symbolic = pcs_lang::parse_program("p(X) :- X <= 10.\nq(X) :- p(X), X >= 8.\n?- q(X).")
        .expect("the constraint-fact program parses");
    assert!(fm_sat_calls(&symbolic, &pcs_engine::Database::new(), Strategy::None) > 0);
}

/// An insert-only batch records a `resume` span and a batch with a
/// retraction a `retract` span — under the mode alone, and with the same
/// statistics either way.
fn assert_update_phases_follow_the_mode() {
    let program = programs::flights();
    let base = programs::flights_database(5, 5);
    let leg = pcs_engine::parse_facts("singleleg(madison, hubx, 30, 30).").expect("the leg parses");
    let [(off_insert, off_retract), (on_insert, on_retract)] = [false, true].map(|telemetry| {
        set_telemetry(telemetry);
        let evaluator = Optimizer::new(program.clone())
            .optimize()
            .expect("optimization succeeds")
            .evaluator();
        let materialized = evaluator.evaluate(&base);
        let before = phase_counts();
        let inserted = evaluator.apply(
            materialized.relations,
            UpdateBatch::inserting(leg.clone()),
            &base,
        );
        assert_phases_recorded(&before, telemetry, &[Phase::Resume], "insert-only batch");
        let before = phase_counts();
        let retracted = evaluator.apply(
            inserted.relations,
            UpdateBatch::retracting(leg.clone()),
            &base,
        );
        assert_phases_recorded(&before, telemetry, &[Phase::Retract], "retracting batch");
        (inserted.stats, retracted.stats)
    });
    assert_stats_identical(&off_insert, &on_insert, "insert-only batch");
    assert_stats_identical(&off_retract, &on_retract, "retracting batch");
    assert!(on_insert.iterations.iter().any(|i| i.wall_nanos > 0));
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
            let label = format!("{workload}/{strategy_name}");
            let (off, off_answers) = run(program, db, strategy, false);
            let (on, on_answers) = run(program, db, strategy, true);
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
    assert_update_phases_follow_the_mode();
    assert_fm_runs_only_for_non_ground_residuals();
    pcs_telemetry::set_mode(previous);
}
