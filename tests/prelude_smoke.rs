//! Workspace smoke test: the facade crate's `prelude::*` surface compiles,
//! and the `Optimizer` quickstart promised by `src/lib.rs` runs end to end.

use pushing_constraint_selections::prelude::*;
// The prelude exports `Strategy` both as the optimizer enum and (via the
// facade) nothing else by that name; alias for clarity.
use pushing_constraint_selections::{Optimized, Optimizer, Strategy};

/// Every layer's flagship types are reachable through the prelude glob.
#[test]
fn prelude_reexports_every_layer() {
    // constraints
    let x = Var::new("X");
    let atom = Atom::var_le(x.clone(), 4);
    let conj = Conjunction::of(atom);
    assert!(conj.is_satisfiable());
    let _: Rational = Rational::from(2);
    let _ = LinearExpr::var(x);
    let _ = ConstraintSet::truth();

    // lang
    let program: Program = parse_program("q(X) :- b(X), X <= 4.\n?- q(Z).").unwrap();
    assert_eq!(program.rules().len(), 1);
    let _: &Query = program.query().unwrap();
    let _: &Rule = &program.rules()[0];
    let _: Pred = Pred::new("q");
    let _: Term = Term::Num(1.into());
    let _: Literal = program.rules()[0].head.clone();

    // engine
    let mut db = Database::new();
    db.add_ground("b", vec![Value::num(3)]);
    let result = Evaluator::new(&program, EvalOptions::default()).evaluate(&db);
    assert!(result.termination.is_fixpoint());
    let _: &EvalLimits = &EvalOptions::default().limits;
    let _: Vec<Fact> = result.answers(program.query().unwrap());
    let _: Termination = result.termination;

    // transform
    let rewritten =
        apply_sequence(&program, &CONSTRAINT_REWRITE, &PropagateOptions::default()).unwrap();
    assert!(!rewritten.program.rules().is_empty());
    let _ = magic_rewrite(&program, &MagicOptions::bound_if_ground()).unwrap();
    assert_eq!(CONSTRAINT_REWRITE, [Step::Pred, Step::Qrp]);
    assert_eq!(OPTIMAL_SEQUENCE, [Step::Pred, Step::Qrp, Step::Magic]);
    let _ = check_decidable_class(&program);
    let _ = gen_predicate_constraints(&program, &GenOptions::default());
    let query_preds: std::collections::BTreeSet<Pred> = [Pred::new("q")].into_iter().collect();
    let _ = gen_qrp_constraints(&program, &query_preds, &GenOptions::default());
    let _ = SipStrategy::default();

    // core
    let _ = programs::example_41();
    let _ = programs::flights();
}

/// The quickstart from the facade crate's `src/lib.rs` rustdoc, as a plain
/// test so it is exercised even when doctests are skipped.
#[test]
fn facade_quickstart_runs_end_to_end() {
    let program = programs::example_41();
    let optimized: Optimized = Optimizer::new(program)
        .strategy(Strategy::ConstraintRewrite)
        .optimize()
        .unwrap();
    // The rewritten definition of p2 checks X <= 4 before scanning b2.
    assert!(!optimized.program.rules_for(&Pred::new("p2"))[0]
        .constraint
        .is_trivially_true());
}

/// The full default pipeline (Strategy::Optimal) agrees with the unoptimized
/// program on the flights workload, while computing no more flight facts.
#[test]
fn optimal_strategy_preserves_answers_on_flights() {
    let program = programs::flights();
    let db = programs::flights_database(6, 20);

    let baseline = Optimizer::new(program.clone())
        .strategy(Strategy::None)
        .optimize()
        .unwrap();
    let optimal = Optimizer::new(program)
        .strategy(Strategy::default())
        .optimize()
        .unwrap();

    assert_eq!(baseline.count_answers(&db), optimal.count_answers(&db));
    let flight = Pred::new("flight");
    assert!(optimal.evaluate(&db).count_for(&flight) <= baseline.evaluate(&db).count_for(&flight));
}
