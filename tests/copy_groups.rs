//! Copy groups: the rules Theorems 4.3/4.4 copy once per QRP disjunct share
//! their head and body, and the evaluator joins that body once for all of
//! them.  These tests pin what that may change — the number of derivations
//! — and what it may not: the facts and constraint facts stored (in their
//! order), the answers, and incremental maintenance.
//!
//! The ungrouped reference evaluates the same rules, each given one vacuous
//! private equality (`CopyN = N` over a variable nothing else mentions):
//! a private equality keeps a rule out of every group, and `∃CopyN. CopyN =
//! N` is true, so each rule then runs its own plans with its own meaning.

use pushing_constraint_selections::engine::{naive, EvalResult, ProgramPlans};
use pushing_constraint_selections::prelude::*;

mod common;
use common::{assert_matches_oracle, assert_same_facts};

/// `program` with no two rules in one copy group.
fn ungrouped(program: &Program) -> Program {
    let mut out = Program::new();
    for pred in program.edb_predicates() {
        out.declare_edb(pred);
    }
    if let Some(query) = program.query() {
        out.set_query(query.clone());
    }
    for (index, rule) in program.rules().iter().enumerate() {
        let mut rule = rule.clone();
        if !rule.body.is_empty() {
            let copy = Var::new(format!("Copy{index}"));
            rule.constraint.push(Atom::var_eq(copy, index as i64));
        }
        out.add_rule(rule);
    }
    out
}

/// The flights program under `pred,qrp` with the given disjunct handling.
fn flights_rewritten(propagate: PropagateOptions) -> Program {
    apply_sequence(&programs::flights(), &CONSTRAINT_REWRITE, &propagate)
        .expect("the flights program rewrites")
        .program
}

fn evaluate(program: &Program, db: &Database) -> EvalResult {
    Evaluator::new(program, EvalOptions::default()).evaluate(db)
}

/// Every stored fact, predicate by predicate, in insertion order.
fn stored_in_order(result: &EvalResult) -> Vec<(String, Vec<String>)> {
    result
        .relations
        .iter()
        .map(|(pred, relation)| {
            let facts = relation.iter().map(|fact| fact.to_string()).collect();
            (pred.to_string(), facts)
        })
        .collect()
}

fn answers(result: &EvalResult, program: &Program) -> Vec<String> {
    let query = program.query().expect("the program has a query");
    result
        .answers(query)
        .iter()
        .map(ToString::to_string)
        .collect()
}

/// The sizes of the copy groups of `program`'s round plans, by first rule.
fn group_sizes(program: &Program) -> Vec<usize> {
    let plans = ProgramPlans::compile(&program.flattened());
    plans
        .planned_rules()
        .into_iter()
        .map(|rule| plans.plans_for(rule)[0].copies.len())
        .collect()
}

#[test]
fn overlapping_disjuncts_derive_each_fact_once_per_body_match() {
    let db = programs::flights_database(8, 40);
    let overlapping = flights_rewritten(PropagateOptions::default());
    let non_overlapping = flights_rewritten(PropagateOptions {
        non_overlapping: true,
        ..PropagateOptions::default()
    });
    // cheaporshort's r1 and r2, flight's two base and two recursive copies.
    assert_eq!(group_sizes(&overlapping), vec![2, 2, 2]);
    assert!(group_sizes(&ungrouped(&overlapping))
        .iter()
        .all(|&n| n == 1));

    let grouped = evaluate(&overlapping, &db);
    let disjoint = evaluate(&non_overlapping, &db);
    let separate = evaluate(&ungrouped(&overlapping), &db);
    // Section 4.6's duplicate derivations are gone: the overlapping default
    // derives exactly what the non-overlapping rewrite derives.
    assert_eq!(
        grouped.stats.total_derivations(),
        disjoint.stats.total_derivations()
    );
    assert!(
        grouped.stats.total_derivations() < separate.stats.total_derivations(),
        "{} grouped vs {} separate",
        grouped.stats.total_derivations(),
        separate.stats.total_derivations()
    );
    // Only derivations move: the facts, their order and the answers stay.
    assert_eq!(stored_in_order(&grouped), stored_in_order(&separate));
    assert_eq!(stored_in_order(&grouped), stored_in_order(&disjoint));
    assert_eq!(
        grouped.stats.iterations.len(),
        separate.stats.iterations.len()
    );
    assert_eq!(
        answers(&grouped, &overlapping),
        answers(&separate, &overlapping)
    );
    assert!(!answers(&grouped, &overlapping).is_empty());
}

/// A small flights network whose `c3 -> c9` leg is a fare band: any time
/// from 50 to 60, at twice the time in cost.
const FARE_BAND_EDB: &str = "\
singleleg(madison, c3, 40, 30).
singleleg(madison, c5, 250, 90).
singleleg(c3, c5, 60, 40).
singleleg(c5, c9, 70, 200).
singleleg(c9, seattle, 45, 20).
singleleg(c5, seattle, 300, 400).
singleleg(c3, c9, T, C) :- 50 <= T, T <= 60, C = 2*T.
";

fn fare_band_db() -> Database {
    let mut db = Database::new();
    db.add_facts_str(FARE_BAND_EDB).expect("the EDB parses");
    db
}

#[test]
fn a_copy_group_stores_what_its_copies_store_over_constraint_facts() {
    let program = flights_rewritten(PropagateOptions::default());
    let db = fare_band_db();
    let grouped = evaluate(&program, &db);
    let separate = evaluate(&ungrouped(&program), &db);
    assert!(grouped.termination.is_fixpoint());
    // The fare band reaches the head: flights through it are constraint
    // facts, derived on the symbolic path of each copy alone.
    assert!(grouped.stats.constraint_facts > 1, "{:?}", grouped.stats);
    assert!(grouped.stats.total_derivations() < separate.stats.total_derivations());
    // The same facts and constraint facts, stored in the same order.
    assert_eq!(stored_in_order(&grouped), stored_in_order(&separate));
    assert_eq!(
        grouped.stats.constraint_facts,
        separate.stats.constraint_facts
    );
    assert_eq!(answers(&grouped, &program), answers(&separate, &program));
    assert!(!answers(&grouped, &program).is_empty());
    // And the same denotation as the naive reference interpreter.
    let oracle = naive::evaluate(&program, &db, &EvalLimits::default());
    assert_matches_oracle(
        &grouped,
        &oracle,
        &program,
        &db,
        "for the grouped fare-band program",
    );
}

#[test]
fn a_copy_group_maintained_by_apply_matches_scratch() {
    let program = flights_rewritten(PropagateOptions::default());
    let evaluator = Evaluator::new(&program, EvalOptions::default());
    let fare_band = "singleleg(c3, c9, T, C) :- 50 <= T, T <= 60, C = 2*T.";
    // (retractions, insertions) per step, retractions applied first.
    let steps = [
        (
            "",
            "singleleg(c9, c12, 30, 10).\nsingleleg(c12, seattle, 20, 15).",
        ),
        ("singleleg(c3, c5, 60, 40).", ""),
        (fare_band, ""),
        (
            "singleleg(c9, seattle, 45, 20).",
            "singleleg(c3, c5, 60, 40).",
        ),
        ("singleleg(madison, c3, 40, 30).", fare_band),
    ];
    let mut edb = fare_band_db();
    let mut result = evaluator.evaluate(&edb);
    for (index, (retracts, inserts)) in steps.into_iter().enumerate() {
        let retracts = parse_facts(retracts).unwrap();
        if !retracts.is_empty() {
            assert_eq!(edb.remove_facts(&retracts), retracts.len());
            let batch = UpdateBatch::retracting(retracts);
            result = evaluator.apply(result.relations, batch, &edb);
        }
        let inserts = parse_facts(inserts).unwrap();
        if !inserts.is_empty() {
            for fact in &inserts {
                edb.add(fact.clone());
            }
            let batch = UpdateBatch::inserting(inserts);
            result = evaluator.apply(result.relations, batch, &edb);
        }
        let context = format!("after step {}", index + 1);
        assert_same_facts(&result, &evaluator.evaluate(&edb), &program, &edb, &context);
        let oracle = naive::evaluate(&program, &edb, &EvalLimits::default());
        assert_matches_oracle(&result, &oracle, &program, &edb, &context);
    }
}

#[test]
fn a_copy_group_inserts_in_the_order_its_copies_would() {
    // Iteration 1 joins both delta positions: the new `a(7, 2)` meets the
    // seeded `b(2, 11)` (live for `r_big` alone), and the seeded `a(1, 2)`
    // meets the new `b(2, 4)` (live for `r_small` alone).  Separate plans
    // insert `r_small`'s derivations from both positions before `r_big`'s.
    let program = parse_program(
        "ra: a(X, Y) :- ea(X, Y).\n\
         rb: b(X, Y) :- eb(X, Y).\n\
         r_small: q(X, Z) :- a(X, Y), b(Y, Z), X <= 5.\n\
         r_big: q(X, Z) :- a(X, Y), b(Y, Z), Z >= 10.",
    )
    .unwrap();
    let mut db = Database::new();
    db.add_facts_str("a(1, 2).\nb(2, 11).\nea(7, 2).\neb(2, 4).")
        .unwrap();
    assert_eq!(group_sizes(&program), vec![1, 1, 2]);
    let grouped = evaluate(&program, &db);
    let separate = evaluate(&ungrouped(&program), &db);
    assert_eq!(stored_in_order(&grouped), stored_in_order(&separate));
    let q: Vec<String> = grouped.relations[&Pred::new("q")]
        .iter()
        .map(|fact| fact.to_string())
        .collect();
    assert_eq!(q, vec!["q(1, 11)", "q(1, 4)", "q(7, 11)"]);
    // q(1, 11) is live for both copies and derived once.
    assert_eq!(
        grouped.stats.total_derivations() + 1,
        separate.stats.total_derivations()
    );
}
