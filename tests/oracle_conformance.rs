//! Conformance of the production evaluator against the naive reference
//! interpreter (`pcs_engine::naive`).
//!
//! The oracle shares nothing with the production join executor beyond the
//! constraint algebra and fact normalization: no indexes, no semi-naive
//! deltas, no join plans, no threads, no subsumption shortcuts.  For every
//! rewriting strategy, on deterministic, random, and constraint-fact EDBs,
//! the production evaluator (on one CPU core and on four) must compute a
//! materialization *denotationally identical* to the oracle's:
//!
//! * the same termination behavior (all workloads here reach a fixpoint),
//! * per predicate, every production fact is subsumed by a stored oracle
//!   fact and vice versa (mutual single-fact coverage — both sides insert
//!   with subsumption, so this is equality of the stored denotations), and
//! * on evaluations that compute only ground facts, the stored fact sets
//!   are *identical* (ground facts have one canonical rendering).

use proptest::prelude::*;

use pushing_constraint_selections::engine::naive;
use pushing_constraint_selections::prelude::*;

mod common;
use common::{all_strategies, assert_matches_oracle};

/// Runs every strategy, sequentially and on a 4-thread pool (sharding
/// forced even for narrow rounds), against the oracle.
fn assert_conformance(program: &Program, db: &Database) {
    for strategy in all_strategies() {
        let optimized = Optimizer::new(program.clone())
            .strategy(strategy.clone())
            .optimize()
            .expect("optimization succeeds");
        let oracle = naive::evaluate(&optimized.program, db, &EvalLimits::default());
        assert!(
            oracle.termination.is_fixpoint(),
            "oracle diverged under {strategy:?}; pick a terminating workload"
        );
        for threads in [1, 4] {
            let options = EvalOptions::default()
                .with_threads(threads)
                .with_min_parallel_work(0);
            let production = Evaluator::new(&optimized.program, options).evaluate(db);
            assert_matches_oracle(
                &production,
                &oracle,
                &format!("under {strategy:?} on {threads} thread(s)"),
            );
        }
    }
}

#[test]
fn production_cores_conform_on_the_deterministic_paper_workloads() {
    for (program, db) in [
        (programs::flights(), programs::flights_database(5, 6)),
        (programs::example_41(), programs::example_41_database(12)),
        (programs::example_71(), programs::example_7x_database(8, 6)),
        (programs::example_72(), programs::example_7x_database(8, 6)),
    ] {
        assert_conformance(&program, &db);
    }
}

#[test]
fn production_cores_conform_on_constraint_fact_edbs() {
    let mut db = programs::example_7x_database(6, 5);
    assert!(db.add_constrained(
        "b1",
        2,
        Conjunction::from_atoms([
            Atom::var_ge(Var::position(1), 0),
            Atom::var_le(Var::position(1), 2),
            Atom::var_eq(Var::position(2), 1_000),
        ]),
    ));
    db.add_facts_str("b1(1, 1000).").unwrap();
    assert_conformance(&programs::example_71(), &db);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn production_cores_conform_on_random_7x_edbs(
        edges in proptest::collection::vec((0i64..8, 0i64..8), 1..8)
    ) {
        let mut db = Database::new();
        for (x, y) in &edges {
            db.add_ground("b1", vec![Value::num(*x), Value::num(*y)]);
            db.add_ground("b2", vec![Value::num(*y), Value::num(*x + *y)]);
        }
        assert_conformance(&programs::example_71(), &db);
        assert_conformance(&programs::example_72(), &db);
    }

    #[test]
    fn production_cores_conform_on_random_flight_networks(
        legs in proptest::collection::vec(
            (0u8..5, 0u8..5, 30i64..240, 20i64..200),
            1..7
        )
    ) {
        // Acyclic (lower- to higher-numbered city) so every strategy
        // terminates, on top of the deterministic madison–seattle chain.
        let mut db = programs::flights_database(4, 0);
        for (a, b, time, cost) in &legs {
            if a == b {
                continue;
            }
            db.add_ground(
                "singleleg",
                vec![
                    Value::sym(format!("c{}", a.min(b))),
                    Value::sym(format!("c{}", a.max(b))),
                    Value::num(*time),
                    Value::num(*cost),
                ],
            );
        }
        assert_conformance(&programs::flights(), &db);
    }
}
