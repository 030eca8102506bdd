//! Differential test of parallel versus sequential evaluation.
//!
//! Across every rewriting strategy, on deterministic and on randomly
//! generated EDBs, sharding the per-iteration derivation work across four
//! worker threads must be *bit-for-bit* identical to evaluating on one:
//! same relations, same per-iteration derivation/new/subsumed/delta
//! statistics, same termination.  The deterministic (rule, delta-position,
//! delta-fact) merge order at the iteration barrier is what the comparison
//! pins down.  (Whether either run is *right* is `oracle_conformance.rs`'s
//! question; the "cores" in the test names below are CPU cores.)

use proptest::prelude::*;

use pushing_constraint_selections::prelude::*;

mod common;
use common::{all_strategies, assert_identical};

/// Evaluates `program` against `db` under every strategy on one thread and
/// on a 4-thread worker pool (sharding forced even for narrow rounds), and
/// asserts the two runs are identical down to the per-iteration statistics.
fn assert_cores_agree(program: &Program, db: &Database) {
    for strategy in all_strategies() {
        let optimized = Optimizer::new(program.clone())
            .strategy(strategy.clone())
            .optimize()
            .expect("optimization succeeds");
        let sequential = optimized.evaluate_with(db, EvalOptions::default().with_threads(1));
        let parallel = optimized.evaluate_with(
            db,
            EvalOptions::default()
                .with_threads(4)
                .with_min_parallel_work(0),
        );
        assert_identical(
            &sequential,
            &parallel,
            &format!("between 1 and 4 threads under {strategy:?}"),
        );
    }
}

fn edge_db(edges: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    for (x, y) in edges {
        db.add_ground("b1", vec![Value::num(*x), Value::num(*y)]);
        db.add_ground("b2", vec![Value::num(*y), Value::num(*x + *y)]);
    }
    db
}

/// A random acyclic flight network (legs oriented from the lower- to the
/// higher-numbered city) on top of the deterministic madison–seattle chain.
fn flights_db(legs: &[(u8, u8, i64, i64)]) -> Database {
    let mut db = programs::flights_database(4, 0);
    for (a, b, time, cost) in legs {
        if a == b {
            continue;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        db.add_ground(
            "singleleg",
            vec![
                Value::sym(format!("c{lo}")),
                Value::sym(format!("c{hi}")),
                Value::num(*time),
                Value::num(*cost),
            ],
        );
    }
    db
}

#[test]
fn cores_agree_on_the_deterministic_paper_workloads() {
    for (program, db) in [
        (programs::flights(), programs::flights_database(6, 15)),
        (programs::example_41(), programs::example_41_database(20)),
        (
            programs::example_71(),
            programs::example_7x_database(15, 12),
        ),
        (
            programs::example_72(),
            programs::example_7x_database(15, 12),
        ),
    ] {
        assert_cores_agree(&program, &db);
    }
}

#[test]
fn cores_agree_on_constraint_fact_edbs() {
    // A database mixing ground facts with proper constraint facts exercises
    // the constraint-fact tail of the per-position indexes.
    use pushing_constraint_selections::constraints::{Atom, Conjunction, Var};
    let mut db = programs::example_7x_database(8, 6);
    assert!(db.add_constrained(
        "b1",
        2,
        Conjunction::from_atoms([
            Atom::var_ge(Var::position(1), 0),
            Atom::var_le(Var::position(1), 2),
            Atom::var_eq(Var::position(2), 1_000),
        ]),
    ));
    assert_cores_agree(&programs::example_71(), &db);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cores_agree_on_random_7x_edbs(
        edges in proptest::collection::vec((0i64..12, 0i64..12), 1..14)
    ) {
        let db = edge_db(&edges);
        assert_cores_agree(&programs::example_71(), &db);
        assert_cores_agree(&programs::example_72(), &db);
    }

    #[test]
    fn cores_agree_on_random_flight_networks(
        legs in proptest::collection::vec(
            (0u8..8, 0u8..8, 30i64..240, 20i64..200),
            1..12
        )
    ) {
        let db = flights_db(&legs);
        assert_cores_agree(&programs::flights(), &db);
    }
}
