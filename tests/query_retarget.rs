//! Answering the query from the relation that already holds it
//! (`pcs_transform::retarget_query`, run by `Optimizer::optimize` after
//! every strategy but `none`).
//!
//! Where it fires, the query names the predicate its query predicate only
//! copied, and the answers stay the naive oracle's for the source program on
//! every program of `programs/` under every strategy.  Base facts on either
//! predicate are refused, as on every rule-defined predicate
//! (`Optimized::check_database`).

use pushing_constraint_selections::engine::naive;
use pushing_constraint_selections::prelude::*;

mod common;
use common::{all_strategies, random_edb, rendered_answers};

fn optimized(program: Program, strategy: Strategy) -> Optimized {
    Optimizer::new(program)
        .strategy(strategy)
        .optimize()
        .expect("optimization succeeds")
}

/// The flights rules of Example 1.1 under `query`.
fn flights(query: &str) -> Program {
    parse_program(&format!(
        "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n\
         r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.\n\
         r3: flight(S, D, T, C) :- singleleg(S, D, T, C), T > 0, C > 0.\n\
         r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), \
             T = T1 + T2 + 30, C = C1 + C2.\n\
         {query}"
    ))
    .unwrap()
}

#[test]
fn the_query_reads_the_copied_predicate_on_flights_and_example_71() {
    let flights_c0 = flights("?- cheaporshort(c0, D, T, C).");
    let cases = [
        (
            flights_c0.clone(),
            Strategy::ConstraintRewrite,
            "?- flight(c0, D, T, C).",
            "cheaporshort(S, D, T, C) from flight(S, D, T, C)",
        ),
        (
            flights_c0,
            Strategy::Optimal,
            "?- flight_bfff(c0, D, T, C).",
            "cheaporshort_bfff(S, D, T, C) from flight_bfff(S, D, T, C)",
        ),
        (
            programs::example_71(),
            Strategy::ConstraintRewrite,
            "?- a1(U, V).",
            "q(X, Y) from a1(X, Y)",
        ),
        (
            programs::example_71(),
            Strategy::Optimal,
            "?- a1_ff(U, V).",
            "q_ff(X, Y) from a1_ff(X, Y)",
        ),
    ];
    for (program, strategy, query, account) in cases {
        let context = format!("{strategy:?}: {query}");
        let optimized = optimized(program, strategy);
        let rewritten = optimized.program.query().unwrap();
        assert_eq!(rewritten.to_string(), query, "{context}");
        assert_eq!(
            optimized.query_pred, rewritten.literals[0].predicate,
            "{context}"
        );
        // The copying predicate's rules are gone.
        let (copier, _) = account.split_once('(').unwrap();
        assert!(
            optimized.program.rules_for(&Pred::new(copier)).is_empty(),
            "{context}"
        );
        assert_eq!(
            optimized.explain()[0],
            format!("answer {account}"),
            "{context}"
        );
    }
}

#[test]
fn strategy_none_leaves_the_program_untouched() {
    for program in [programs::flights(), programs::example_71()] {
        let optimized = optimized(program.clone(), Strategy::None);
        assert_eq!(optimized.program.to_string(), program.to_string());
        assert!(!optimized.explain()[0].starts_with("answer "));
    }
}

#[test]
fn answers_equal_the_oracle_on_every_program_under_every_strategy() {
    let mut retargeted = 0;
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/programs")).unwrap() {
        let path = entry.unwrap().path();
        let program = parse_program(&std::fs::read_to_string(&path).unwrap()).unwrap();
        if program.edb_predicates().is_empty() {
            // fibonacci: its rewrite does not converge within the budget.
            continue;
        }
        let db = if path.ends_with("flights.pcs") {
            programs::flights_database(5, 6)
        } else {
            random_edb(&program, 7)
        };
        let query = program.query().expect("every program has a query");
        let source = naive::evaluate(&program, &db, &EvalLimits::default());
        let mut source_answers = Database::new();
        for fact in source.facts_for(&query.literals[0].predicate) {
            source_answers.add(fact.clone());
        }
        let expected = rendered_answers(source_answers.answers(query));
        for strategy in all_strategies() {
            let context = format!("{} under {strategy:?}", path.display());
            let optimized = optimized(program.clone(), strategy);
            retargeted += usize::from(optimized.explain()[0].starts_with("answer "));
            let result = optimized.evaluate(&db);
            let query = optimized.program.query().unwrap();
            assert_eq!(
                rendered_answers(result.answers(query)),
                expected,
                "answers diverged {context}"
            );
        }
    }
    assert_eq!(retargeted, 19, "pairs the step fired on");
}

#[test]
fn base_facts_on_the_query_or_source_predicate_are_refused() {
    let program = flights("?- cheaporshort(S, D, T, C).");
    let optimized = optimized(program, Strategy::ConstraintRewrite);
    assert_eq!(optimized.query_pred, Pred::new("flight"));
    let database = |facts: &str| {
        let mut db = Database::new();
        db.add_facts_str(facts).unwrap();
        db
    };
    let leg = "singleleg(b, c, 10, 10).\n";
    // Base facts on EDB predicates only: the retargeted program answers.
    let db = database(leg);
    assert_eq!(optimized.check_database(&db), Ok(()));
    let answers: Vec<String> = optimized
        .evaluate(&db)
        .answers(optimized.program.query().unwrap())
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(answers, ["flight(b, c, 10, 10)"]);
    // A base fact on the copied predicate or on the removed query predicate
    // is refused, and evaluating over it panics instead of answering.
    for (fact, pred) in [
        ("flight(a, b, 500, 500).", "flight"),
        ("cheaporshort(x, y, 1, 1).", "cheaporshort"),
    ] {
        let db = database(&format!("{leg}{fact}"));
        assert_eq!(optimized.check_database(&db), Err(Pred::new(pred)));
        let evaluated = std::panic::catch_unwind(|| optimized.count_answers(&db));
        assert!(evaluated.is_err(), "{fact} was evaluated");
    }
}
