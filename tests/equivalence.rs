//! Integration tests: query equivalence of the rewritten programs
//! (Theorems 4.3, 4.6 and the correctness side of Section 7) across crates.

use pushing_constraint_selections::engine::naive;
use pushing_constraint_selections::prelude::*;

mod common;
use common::{all_strategies, random_edb, rendered_answers};

/// Evaluates a program under a strategy and returns the rendered answer set
/// (sorted), so answer sets can be compared across rewritings that rename the
/// query predicate.
fn answers(program: &Program, strategy: Strategy, db: &Database) -> Vec<String> {
    let optimized = Optimizer::new(program.clone())
        .strategy(strategy)
        .optimize()
        .expect("optimization succeeds");
    let result = optimized.evaluate(db);
    let query = optimized.program.query().expect("query present");
    let mut rendered: Vec<String> = result
        .answers(query)
        .iter()
        .map(|fact| {
            // Strip the (possibly adorned) predicate name so that answers are
            // comparable across strategies.
            let text = fact.to_string();
            text.split_once('(')
                .map(|(_, rest)| rest.to_string())
                .unwrap_or(text)
        })
        .collect();
    rendered.sort();
    rendered.dedup();
    rendered
}

#[test]
fn flights_answers_agree_across_all_strategies() {
    let program = programs::flights();
    let db = programs::flights_database(6, 15);
    let baseline = answers(&program, Strategy::None, &db);
    assert!(
        !baseline.is_empty(),
        "query should have answers on this EDB"
    );
    for strategy in all_strategies() {
        let got = answers(&program, strategy.clone(), &db);
        assert_eq!(got, baseline, "strategy {strategy:?} changed the answers");
    }
}

#[test]
fn example_41_answers_agree_across_all_strategies() {
    let program = programs::example_41();
    let db = programs::example_41_database(20);
    let baseline = answers(&program, Strategy::None, &db);
    assert!(!baseline.is_empty());
    for strategy in all_strategies() {
        assert_eq!(answers(&program, strategy.clone(), &db), baseline);
    }
}

#[test]
fn example_71_and_72_answers_agree_across_orderings() {
    for (program, db) in [
        (
            programs::example_71(),
            programs::example_7x_database(15, 12),
        ),
        (
            programs::example_72(),
            programs::example_7x_database(15, 12),
        ),
    ] {
        let baseline = answers(&program, Strategy::None, &db);
        for strategy in all_strategies() {
            assert_eq!(answers(&program, strategy.clone(), &db), baseline);
        }
    }
}

#[test]
fn example_42_rewrite_is_equivalent_and_cheaper() {
    let program = programs::example_42();
    let db = programs::example_42_database(25);
    let baseline = answers(&program, Strategy::None, &db);
    let rewritten = answers(&program, Strategy::ConstraintRewrite, &db);
    assert_eq!(baseline, rewritten);

    let base_eval = Optimizer::new(program.clone())
        .strategy(Strategy::None)
        .optimize()
        .unwrap()
        .evaluate(&db);
    let opt_eval = Optimizer::new(program)
        .strategy(Strategy::ConstraintRewrite)
        .optimize()
        .unwrap()
        .evaluate(&db);
    assert!(opt_eval.count_for(&Pred::new("a")) <= base_eval.count_for(&Pred::new("a")));
}

#[test]
fn rewritten_flights_never_materializes_irrelevant_flights() {
    // The headline claim of Example 4.3, end to end.
    let program = programs::flights();
    let db = programs::flights_database(8, 40);
    let optimized = Optimizer::new(program)
        .strategy(Strategy::ConstraintRewrite)
        .optimize()
        .unwrap();
    let result = optimized.evaluate(&db);
    assert!(result.termination.is_fixpoint());
    assert!(result.only_ground_facts(), "Theorem 4.4: only ground facts");
    for fact in result.facts_for(&Pred::new("flight")) {
        let values = fact.ground_values().expect("ground");
        let time = values[2].as_num().unwrap();
        let cost = values[3].as_num().unwrap();
        assert!(
            !(time > 240.into() && cost > 150.into()),
            "irrelevant fact {fact}"
        );
    }
}

#[test]
fn every_rewriting_prunes_the_rules_no_query_predicate_reaches() {
    // `z` reads an EDB predicate the query needs, but the query never reads
    // `z`.
    let program = parse_program(
        "q(X) :- p(X), X <= 3.\n\
         p(X) :- b(X).\n\
         p(X) :- r(X).\n\
         r(X) :- c(X), X >= 10.\n\
         z(X) :- c(X).\n\
         ?- q(U).",
    )
    .unwrap();
    let db = random_edb(&program, 11);
    let query = program.query().unwrap();
    let oracle = naive::evaluate(&program, &db, &EvalLimits::default());
    let mut source_answers = Database::new();
    for fact in oracle.facts_for(&Pred::new("q")) {
        source_answers.add(fact.clone());
    }
    let expected = rendered_answers(source_answers.answers(query));
    assert!(!expected.is_empty(), "the database answers the query");
    let mut strategies = all_strategies();
    strategies.extend([
        Strategy::Sequence(vec![Step::Pred]),
        Strategy::Sequence(vec![Step::Qrp]),
        Strategy::Sequence(vec![Step::Pred, Step::Qrp]),
    ]);
    for strategy in strategies {
        let optimized = Optimizer::new(program.clone())
            .strategy(strategy.clone())
            .optimize()
            .expect("optimization succeeds");
        if strategy != Strategy::None {
            let reachable = optimized.program.reachable_from(&optimized.query_pred);
            for rule in optimized.program.rules() {
                assert!(
                    reachable.contains(&rule.head.predicate),
                    "{rule} survives under {strategy:?}"
                );
            }
        }
        let result = optimized.evaluate(&db);
        assert_eq!(
            rendered_answers(result.answers(optimized.program.query().unwrap())),
            expected,
            "answers diverged under {strategy:?}"
        );
    }
}

/// Renders the rewritten program and its `explain()` lines for every program
/// of `programs/` but fibonacci (whose rewrites do not converge) under the
/// four strategies the shell and the benchmark name.
fn rewritten_programs() -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/programs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| !path.ends_with("fibonacci.pcs"))
        .collect();
    paths.sort();
    let strategies = [
        ("constraint", Strategy::ConstraintRewrite),
        ("magic", Strategy::MagicOnly),
        ("optimal", Strategy::Optimal),
        ("pred,qrp", Strategy::Sequence(vec![Step::Pred, Step::Qrp])),
    ];
    let mut out = String::new();
    for path in &paths {
        let program = parse_program(&std::fs::read_to_string(path).unwrap()).unwrap();
        let name = path.file_name().unwrap().to_string_lossy();
        for (token, strategy) in &strategies {
            let optimized = Optimizer::new(program.clone())
                .strategy(strategy.clone())
                .optimize()
                .expect("optimization succeeds");
            out.push_str(&format!("== {name} under {token}\n{}\n", optimized.program));
            for line in optimized.explain() {
                out.push_str(&format!("  {line}\n"));
            }
        }
    }
    out
}

#[test]
fn rewritten_programs_match_the_golden() {
    let expected = include_str!("golden/rewritten_programs.txt");
    let actual = rewritten_programs();
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "golden line {} differs", line + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}
