//! What every rewriting assumes about the database: its base facts sit on
//! EDB predicates, which no rule defines (`Optimized::check_database`).
//!
//! The equivalence proofs cover only such databases, so under every
//! strategy but `none` a database with a base fact on a rule-defined
//! predicate is refused; `none` runs the program as written and answers it
//! like the naive oracle.  Written as rules of the program instead, the same
//! facts give the oracle's answers under every strategy.

use pushing_constraint_selections::engine::naive;
use pushing_constraint_selections::prelude::*;
use pushing_constraint_selections::service::SessionError;

mod common;
use common::{all_strategies, random_edb, rendered_answers, Lcg};

const FLIGHTS_RULES: &str = "\
r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
r3: flight(S, D, T, C) :- singleleg(S, D, T, C), T > 0, C > 0.
r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), T = T1 + T2 + 30, C = C1 + C2.
?- cheaporshort(a, D, T, C).";

/// Runs one `.load` of the flights rules through a fresh shell, `extra`
/// inside the block, then the query; returns the `.end` and query replies.
fn load_and_ask(strategy: &str, extra: &str) -> (Vec<String>, Vec<String>) {
    let mut shell = Shell::new();
    shell.execute(&format!(".strategy {strategy}"));
    shell.execute(".load");
    for line in FLIGHTS_RULES.lines().chain(extra.lines()) {
        shell.execute(line);
    }
    let loaded = shell.execute(".end").lines;
    let asked = shell.execute("?- cheaporshort(a, D, T, C).").lines;
    (loaded, asked)
}

#[test]
fn a_base_flight_is_answered_under_none_and_refused_under_a_rewriting() {
    for time in [10, -5] {
        let facts = format!("+singleleg(b, c, 10, 10).\n+flight(a, b, {time}, 10).");
        let (loaded, asked) = load_and_ask("none", &facts);
        assert!(loaded[0].starts_with("ok: materialized"), "{loaded:?}");
        assert!(asked[0].starts_with("answers: 2 "), "T = {time}: {asked:?}");
        for strategy in ["constraint", "optimal"] {
            let (loaded, asked) = load_and_ask(strategy, &facts);
            assert_eq!(loaded.len(), 1, "{loaded:?}");
            assert!(
                loaded[0].starts_with("error: `flight` is not an EDB predicate, "),
                "{strategy}, T = {time}: {loaded:?}"
            );
            assert_eq!(asked, ["error: no session loaded; use .load first"]);
        }
        // The same fact as a rule of the program.
        let rules = format!("+singleleg(b, c, 10, 10).\nflight(a, b, {time}, 10).");
        for strategy in ["none", "constraint", "optimal"] {
            let (loaded, asked) = load_and_ask(strategy, &rules);
            assert!(loaded[0].starts_with("ok: materialized"), "{loaded:?}");
            assert!(
                asked[0].starts_with("answers: 2 "),
                "{strategy}, T = {time}: {asked:?}"
            );
        }
    }
}

/// A ground fact on each predicate `program` defines by rules, some of them
/// (a non-positive or a large value, a symbol) outside its predicate
/// constraint.  The first argument exceeds the second, so that base flights
/// form no cycle for `r4`'s sums to run around forever.  One fact each:
/// every fact rule adds a disjunct to the predicate constraints, and the
/// flights analysis grows with their square.
fn rule_defined_facts(program: &Program, seed: u64) -> Vec<Fact> {
    let mut rng = Lcg(seed);
    program
        .idb_predicates()
        .into_iter()
        .map(|pred| {
            let arity = program.arity(&pred).expect("a defined predicate occurs");
            let row = (0..arity)
                .map(|position| match (position, rng.below(8)) {
                    (0, 0) => Value::num(500),
                    (0, n) => Value::num(n as i64 + 2),
                    (1, n) => Value::num(n as i64 - 5),
                    (_, 0) => Value::num(-5),
                    (_, 1) => Value::num(500),
                    (_, 2) => Value::sym("a"),
                    (_, n) => Value::num(n as i64 - 3),
                })
                .collect();
            Fact::ground(pred.name(), row)
        })
        .collect()
}

#[test]
fn base_facts_on_rule_defined_predicates_on_every_program_under_every_strategy() {
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/programs")).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let program = parse_program(&text).unwrap();
        if program.edb_predicates().is_empty() {
            // fibonacci: its rewrite does not converge within the budget.
            continue;
        }
        let edb = if path.ends_with("flights.pcs") {
            programs::flights_database(5, 6)
        } else {
            random_edb(&program, 11)
        };
        let extra = rule_defined_facts(&program, 5);
        let mut db = edb.clone();
        for fact in &extra {
            db.add(fact.clone());
        }
        let query = program.query().expect("every program has a query");
        let oracle = naive::evaluate(&program, &db, &EvalLimits::default());
        let mut oracle_answers = Database::new();
        for fact in oracle.facts_for(&query.literals[0].predicate) {
            oracle_answers.add(fact.clone());
        }
        let expected = rendered_answers(oracle_answers.answers(query));
        // The same facts as rules of the program.
        let with_fact_rules = parse_program(&format!(
            "{text}\n{}",
            extra
                .iter()
                .map(|fact| format!("{}.\n", fact.rule_text()))
                .collect::<String>()
        ))
        .unwrap();
        let idb = program.idb_predicates();
        for strategy in all_strategies() {
            let context = format!("{} under {strategy:?}", path.display());
            let optimizer = Optimizer::new(program.clone()).strategy(strategy.clone());
            let optimized = optimizer.optimize().unwrap();
            if strategy == Strategy::None {
                assert_eq!(optimized.check_database(&db), Ok(()), "{context}");
                let result = optimized.evaluate(&db);
                assert_eq!(
                    rendered_answers(result.answers(optimized.program.query().unwrap())),
                    expected,
                    "{context}"
                );
            } else {
                let refused = optimized.check_database(&db).unwrap_err();
                assert!(idb.contains(&refused), "{context}: {refused}");
                match Session::materialize(&optimizer, &db) {
                    Err(SessionError::NotAnEdbPredicate(pred)) => {
                        assert_eq!(pred, refused, "{context}");
                    }
                    Err(e) => panic!("{context}: {e}"),
                    Ok(_) => panic!("{context}: materialized"),
                }
                // So is a base fact on a predicate only the rewriting
                // defines (an adorned or a magic one).
                for pred in optimized.program.idb_predicates() {
                    if idb.contains(&pred) {
                        continue;
                    }
                    let arity = optimized.program.arity(&pred).expect("it occurs");
                    let mut db = edb.clone();
                    db.add_ground(pred.name(), vec![Value::num(1); arity]);
                    assert_eq!(optimized.check_database(&db), Err(pred), "{context}");
                }
            }
            let optimized = Optimizer::new(with_fact_rules.clone())
                .strategy(strategy)
                .optimize()
                .unwrap();
            let result = optimized.evaluate(&edb);
            assert_eq!(
                rendered_answers(result.answers(optimized.program.query().unwrap())),
                expected,
                "fact rules, {context}"
            );
        }
    }
}
