//! Conformance of the production evaluator against the naive reference
//! interpreter (`pcs_engine::naive`).
//!
//! The oracle shares nothing with the production join executor beyond the
//! constraint algebra and fact normalization: no indexes, no semi-naive
//! deltas, no join plans, no subsumption shortcuts.  For every rewriting
//! strategy, on deterministic, random, and constraint-fact EDBs, the
//! production evaluator must compute a materialization *denotationally identical* to the oracle's:
//!
//! * the same termination behavior (all workloads here reach a fixpoint),
//! * per predicate, every production fact is subsumed by a stored oracle
//!   fact and vice versa (mutual single-fact coverage — both sides insert
//!   with subsumption, so this is equality of the stored denotations), and
//! * on evaluations that compute only ground facts, the stored fact sets
//!   are *identical* (ground facts have one canonical rendering).

use proptest::prelude::*;

use pushing_constraint_selections::engine::{naive, AtomOp, EvalResult, EvalStats, ProgramPlans};
use pushing_constraint_selections::prelude::*;

mod common;
use common::{all_strategies, assert_matches_oracle};

/// Runs every strategy against the oracle.
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
        let production = Evaluator::new(&optimized.program, EvalOptions::default()).evaluate(db);
        assert_matches_oracle(&production, &oracle, &format!("under {strategy:?}"));
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

/// The EDB of the run-time-guard regressions: `a` holds a constraint fact
/// beside a ground one, everything else is ground.
const GUARD_EDB: &str = "a(X) :- X >= 0, X <= 10.\na(20).\n\
                         b(3).\nb(7).\nb(15).\nb(20).\n\
                         c(4).\nc(8).\nc(16).\nc(21).";

#[test]
fn a_constraint_fact_matched_early_defers_scheduled_atoms_to_the_residual() {
    // From delta `a` the slot compiler schedules `Y := X + 1` right at `a`,
    // the step that binds X — statically.  The constraint fact a(X; 0 <= X
    // <= 10) matches without giving X a value: the definition cannot run
    // and moves to the residual, `b`'s probe on X finds an empty slot and
    // scans, the ground b(3) then fills X, which re-resolves the waiting
    // atom (Y = 4) in time for `c` to be compared against it.  b(15) falls
    // outside the interval and must be pruned by the residual, not joined.
    let program =
        parse_program("r1: q(X, Y) :- a(X), b(X), c(Y), Y = X + 1.\n?- q(X, Y).").unwrap();
    let plans = ProgramPlans::compile(&program.flattened());
    let from_a = plans.plan(0, 0).expect("r1 has a body");
    assert!(matches!(from_a.steps[0].atoms[..], [AtomOp::Define { .. }]));
    assert_eq!(
        from_a.steps.iter().map(|s| s.probe).collect::<Vec<_>>(),
        vec![None, Some(0), None]
    );

    let mut db = Database::new();
    db.add_facts_str(GUARD_EDB).unwrap();
    assert_conformance(&program, &db);
    let result = Evaluator::new(&program, EvalOptions::default()).evaluate(&db);
    let mut q: Vec<String> = result
        .facts_for(&Pred::new("q"))
        .iter()
        .map(ToString::to_string)
        .collect();
    q.sort();
    assert_eq!(q, ["q(20, 21)", "q(3, 4)", "q(7, 8)"]);
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

// ---------------------------------------------------------------------------
// Query ≡ rule: `answers(?- L, C)` against the rule Section 2 turns the query
// into.
// ---------------------------------------------------------------------------

/// Answers `body` (a query without its `?-`) over `db` three ways and
/// asserts they agree: `EvalResult::answers`, and the query rule
/// `q#(V̄) :- L, C.` ([`Program::attach_query_rule`]) under the production
/// evaluator and under the oracle.  Some answer exists exactly when the rule
/// derives a fact; over a ground relation every matching fact gives its own
/// derivation, so the counts are equal too.  The same answers must come
/// back, in the same order, from a relation filled by bare
/// [`Relation::insert`] — never advanced or sealed.  Returns the number of
/// answers.
fn assert_query_matches_rule(db: &Database, body: &str) -> usize {
    let query = parse_query(body).expect("the corpus parses");
    let (program, ans) = Program::new()
        .with_query(query.clone())
        .attach_query_rule()
        .expect("the program has a query");
    let production = Evaluator::new(&program, EvalOptions::default()).evaluate(db);
    let oracle = naive::evaluate(&program, db, &EvalLimits::default());
    let answers = production.answers(&query);
    let derived = production.count_for(&ans);
    assert_eq!(
        derived == 0,
        oracle.count_for(&ans) == 0,
        "`{body}`: the production rule and the oracle's disagree"
    );
    assert_eq!(
        answers.is_empty(),
        derived == 0,
        "`{body}`: {} answers but the query rule derives {derived} facts",
        answers.len()
    );
    let pred = &query.literals[0].predicate;
    if db.facts_for(pred).iter().all(Fact::is_ground) {
        assert_eq!(answers.len(), derived, "`{body}` over a ground relation");
        assert_eq!(answers.len(), oracle.count_for(&ans), "`{body}` (oracle)");
    }

    let mut bare = Relation::new();
    for fact in db.facts_for(pred) {
        bare.insert(fact.clone());
    }
    let unsealed = EvalResult {
        relations: [(pred.clone(), bare)].into_iter().collect(),
        stats: EvalStats::default(),
        termination: Termination::Fixpoint,
    };
    let rendered = |facts: &[Fact]| facts.iter().map(ToString::to_string).collect::<Vec<_>>();
    assert_eq!(
        rendered(&unsealed.answers(&query)),
        rendered(&answers),
        "`{body}` over a never-advanced relation"
    );
    answers.len()
}

#[test]
fn queries_match_the_rule_they_abbreviate_on_the_answers_corpus() {
    // The relations and queries of the `answers` unit tests, with the
    // expected answer counts pinned.
    let mut db = Database::new();
    db.add_facts_str(
        "r(1, 1). r(1, 2). r(a, a). r(a, b).\n\
         s(1). s(7). s(a).\n\
         q(X) :- X <= 3.\n\
         t(X) :- X <= 5.\n\
         disjoint(X, Y) :- X <= 3, Y >= 5.\n\
         band(X, Y) :- X <= 3, Y <= 3.\n\
         half(X, Y) :- Y <= 3.\n\
         free(X, Y).\n\
         capped(a, Y) :- Y <= 3.",
    )
    .unwrap();
    for (body, expected) in [
        ("r(X, Y)", 4),
        ("r(X, X)", 2),
        ("r(1, X)", 2),
        ("r(a, Y)", 2),
        ("r(X, Y), Y >= 2", 1),
        ("q(2)", 1),
        ("q(5)", 0),
        ("q(madison)", 0),
        ("disjoint(X, X)", 0),
        ("disjoint(X, Y)", 1),
        ("disjoint(X, Y), X = Y", 0),
        ("band(X, X)", 1),
        ("band(2, X)", 1),
        ("band(5, X)", 0),
        ("band(2, X), X >= 1", 1),
        ("band(2, X), X >= 99", 0),
        ("half(X, X)", 1),
        // A symbol against a free position: no match in a rule body, so
        // none in a query — constrained position or not.
        ("half(madison, X)", 0),
        ("half(X, madison)", 0),
        ("s(X + 1)", 2),
        ("s(X + 1), X >= 100", 0),
        ("s(Y + 1), Y = 0", 1),
        ("s(2 * Z), Z >= 3", 1),
        ("t(W + 10), W <= -5", 1),
        ("t(W + 10), W >= 0", 0),
        ("free(X, X)", 1),
        ("capped(X, X)", 0),
        ("capped(a, X)", 1),
        ("capped(X, Y), X <= 3", 0),
    ] {
        assert_eq!(assert_query_matches_rule(&db, body), expected, "`{body}`");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn queries_match_the_rule_they_abbreviate_on_seeded_relations(
        rows in proptest::collection::vec((0u8..6, 0u8..6), 1..8),
        shapes in proptest::collection::vec((0u8..5, 0i64..4, 1i64..6), 1..6)
    ) {
        // `g`: ground rows over {0..3, a, b}.  `k`: constraint facts of a
        // few shapes (both positions constrained; a bound symbol; a bound
        // number; an unconstrained free position) beside ground rows.
        let value = |v: u8| match v {
            4 => "a".to_string(),
            5 => "b".to_string(),
            n => n.to_string(),
        };
        let mut text = String::new();
        for (x, y) in &rows {
            text.push_str(&format!("g({}, {}).\n", value(*x), value(*y)));
        }
        for (shape, lo, hi) in &shapes {
            text.push_str(&match shape {
                0 => format!("k(X, Y) :- X >= {lo}, Y <= {hi}.\n"),
                1 => format!("k(a, Y) :- Y >= {lo}, Y <= {hi}.\n"),
                2 => format!("k(X, {lo}) :- X <= {hi}.\n"),
                3 => format!("k(X, Y) :- Y <= {hi}.\n"),
                _ => format!("k({lo}, {hi}).\n"),
            });
        }
        let mut db = Database::new();
        db.add_facts_str(&text).unwrap();
        for pred in ["g", "k"] {
            for first in ["X", "Y", "1", "a", "X + 1"] {
                for second in ["X", "Y", "2", "b", "Y + 1"] {
                    for side in ["", ", X <= 2", ", X = 1", ", Y >= X", ", Z >= 3, Z <= Y"] {
                        assert_query_matches_rule(&db, &format!("{pred}({first}, {second}){side}"));
                    }
                }
            }
        }
    }
}

#[test]
fn queries_re_resolve_atoms_a_constraint_fact_left_waiting() {
    // `Y = X + 1` is scheduled as a check once the literal binds X and Y.
    // Against r(X, 5; X >= 0) the literal gives X no value, so the atom
    // waits in the residual, where Y = 5 resolves it to X = 4 (inside the
    // fact's constraint: an answer); against r(X, 0; X >= 0) it resolves to
    // X = -1 (outside: none).  The ground r(2, 3) never leaves the slots.
    let mut db = Database::new();
    db.add_facts_str("r(X, 5) :- X >= 0.\nr(X, 0) :- X >= 0.\nr(2, 3).\nr(2, 9).")
        .unwrap();
    for (body, expected) in [
        ("r(X, Y), Y = X + 1", 2),
        ("r(X, Y), Y = X + 1, X >= 3", 1),
        ("r(X, Y), Y = X + 1, X >= 5", 0),
        ("r(X, Y), X = 4, Y = X + 1", 1),
        ("r(X + 1, Y), Y = X + 2", 2),
    ] {
        assert_eq!(assert_query_matches_rule(&db, body), expected, "`{body}`");
    }
}
