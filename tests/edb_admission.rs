//! Admission of base facts into EDB relations (`pcs_engine::plan::Admission`).
//!
//! A ground base fact enters its relation only if some body occurrence of
//! its predicate could match it.  The expected relation is computed without
//! the evaluator, by the naive oracle over one `admit#` rule per occurrence
//! (`common::admitted_edb`): on every program of `programs/` under every
//! strategy, EDB relations hold exactly that, derived relations hold what
//! the oracle derives from the rewritten program, and the answers are the
//! oracle's for the source program.  A property over random rows and random
//! local atoms pins the check itself, overflow included.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::{prop_assert_eq, proptest, ProptestConfig};

use pushing_constraint_selections::constraints::{LinearExpr, Rational, Rel};
use pushing_constraint_selections::engine::naive;
use pushing_constraint_selections::prelude::*;

mod common;
use common::{admitted_edb, all_strategies, assert_matches_oracle, random_edb, rendered_answers};

#[test]
fn edb_relations_hold_what_some_body_occurrence_reads_on_every_program() {
    let mut checked = 0;
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/programs")).unwrap() {
        let path = entry.unwrap().path();
        let program = parse_program(&std::fs::read_to_string(&path).unwrap()).unwrap();
        if program.edb_predicates().is_empty() {
            // fibonacci: no base facts to admit.
            continue;
        }
        let db = if path.ends_with("flights.pcs") {
            // Acyclic, so the unrewritten program terminates.
            programs::flights_database(5, 6)
        } else {
            random_edb(&program, checked)
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
            let optimized = Optimizer::new(program.clone())
                .strategy(strategy)
                .optimize()
                .expect("optimization succeeds");
            let production =
                Evaluator::new(&optimized.program, EvalOptions::default()).evaluate(&db);
            let oracle = naive::evaluate(&optimized.program, &db, &EvalLimits::default());
            assert!(oracle.termination.is_fixpoint(), "{context}");
            assert_matches_oracle(&production, &oracle, &optimized.program, &db, &context);
            let rewritten = optimized.program.query().expect("the query survives");
            assert_eq!(
                rendered_answers(production.answers(rewritten)),
                expected,
                "answers diverged {context}"
            );
        }
        checked += 1;
    }
    assert_eq!(checked, 7, "every program with an EDB is checked");
}

#[test]
fn some_program_filters_its_edb() {
    // The property above would hold vacuously if nothing were filtered.
    let program = programs::example_71();
    let db = programs::example_7x_database(12, 6);
    let optimized = Optimizer::new(program)
        .strategy(Strategy::Optimal)
        .optimize()
        .unwrap();
    let result = optimized.evaluate(&db);
    let b1 = Pred::new("b1");
    assert_eq!(db.facts_for(&b1).len(), 12);
    // `b1: $1 <= 4` reaches the EDB: sources 0..=4 only.
    assert_eq!(result.count_for(&b1), 5);
    assert_eq!(admitted_edb(&optimized.program, &db)[&b1].len(), 5);
}

/// Half of `i128::MAX`: twice it still fits, so the oracle can compare it
/// with 1/2, but a sum of two such terms overflows.
const HALF: i128 = i128::MAX / 2;

/// The values rows draw from: small integers, a non-integer, symbols, the
/// edge of `i64` (where a value leaves the inline integer form), and
/// numbers whose sums overflow `i128`.
fn value(index: u8) -> Value {
    match index {
        0..=6 => Value::num(i64::from(index) - 3),
        7 => Value::num(Rational::ratio(1, 2)),
        8 => Value::sym("a"),
        9 => Value::sym("b"),
        10 => Value::num(i64::MAX),
        11 => Value::num(Rational::from_int(HALF)),
        _ => Value::num(Rational::from_int(-HALF)),
    }
}

/// Whether the oracle's evaluation of `program` over `db` derives the one
/// row of `p`: `None` when its arithmetic overflowed.
fn oracle_admits(program: &Program, db: &Database) -> Option<bool> {
    match catch_unwind(AssertUnwindSafe(|| admitted_edb(program, db))) {
        Ok(edb) => Some(edb[&Pred::new("p")].len() == 1),
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
                .unwrap_or_default();
            assert!(
                message.contains("overflowed"),
                "the oracle panicked: {message}"
            );
            None
        }
    }
}

/// A literal argument: one of the variables X, Y, Z, or a constant.
fn term(index: u8) -> Term {
    match index {
        0 => Term::var("X"),
        1 => Term::var("Y"),
        2 => Term::var("Z"),
        3 => Term::num(1),
        _ => Term::sym("a"),
    }
}

/// `c1·V1 + c2·V2 + k rel 0` over the variables X, Y, Z and W (W occurs in
/// no literal, so an atom mentioning it is never local).
fn atom((v1, c1, v2, c2, k): (u8, u8, u8, u8, u8), rel: u8) -> Atom {
    let var = |v: u8| Var::new(["X", "Y", "Z", "W"][usize::from(v)]);
    let coeff = |c: u8| match c {
        0 => Rational::ratio(1, 2),
        c => Rational::from_int(i128::from(c) - 3),
    };
    let expr = LinearExpr::from_terms(
        [(coeff(c1), var(v1)), (coeff(c2), var(v2))],
        Rational::from_int(i128::from(k) - 3),
    );
    let rel = [Rel::Le, Rel::Lt, Rel::Eq][usize::from(rel)];
    Atom::new(expr, rel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn admission_holds_exactly_when_the_oracle_derives_from_the_row(
        literals in proptest::collection::vec((0u8..5, 0u8..5, 0u8..5), 1..3),
        atoms in proptest::collection::vec(((0u8..4, 0u8..6, 0u8..4, 0u8..6, 0u8..7), 0u8..3, 0u8..2), 0..4),
        rows in proptest::collection::vec((0u8..13, 0u8..13, 0u8..13), 1..6)
    ) {
        // One rule per occurrence of `p`, each led by `gate`, an EDB
        // predicate with no facts: the join never reaches `p`, so the rows
        // `p`'s relation holds are exactly the ones admission let in, and
        // no join evaluates an atom that could overflow.
        let mut program = Program::new();
        for (index, &(a, b, c)) in literals.iter().enumerate() {
            let literal = Literal::new("p", vec![term(a), term(b), term(c)]);
            let constraint = Conjunction::from_atoms(
                atoms
                    .iter()
                    .filter(|(_, _, rule)| usize::from(*rule) == index % 2)
                    .map(|&(shape, rel, _)| atom(shape, rel)),
            );
            program.add_rule(Rule::new(
                Literal::new("h", vec![]),
                vec![Literal::new("gate", vec![]), literal],
                constraint,
            ));
        }
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        for &(a, b, c) in &rows {
            let row = vec![value(a), value(b), value(c)];
            let mut db = Database::new();
            db.add_ground("p", row.clone());
            let admitted = evaluator.evaluate(&db).count_for(&Pred::new("p")) == 1;
            // Where exact arithmetic leaves `i128`, the outcome depends on
            // the order a sum meets its terms: the oracle panics, and
            // admission admits the row if its own sum overflowed.
            let huge = row.iter().any(|v| v.as_num().is_some_and(|n| n.numer().abs() >= HALF));
            match oracle_admits(&program, &db) {
                Some(expected) if !(huge && admitted) => {
                    prop_assert_eq!(admitted, expected, "{} over {:?}", program, db);
                }
                _ => {}
            }
        }
    }
}
