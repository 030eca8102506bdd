//! The one rewriting pipeline: a sequence of the three rewritings studied in
//! Section 7.  `Constraint_rewrite` (Section 4.5) is the sequence `pred, qrp`.

use std::collections::BTreeSet;

use pcs_lang::{Pred, Program};

use crate::error::{Result, TransformError};
use crate::magic::{magic_rewrite, MagicOptions, MagicResult};
use crate::pred_constraints::{
    gen_predicate_constraints, gen_prop_predicate_constraints, GenOptions,
};
use crate::qrp::{gen_prop_qrp_constraints, gen_qrp_constraints, PropagateOptions};

/// One rewriting step of the Section 7 study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// `Gen_Prop_predicate_constraints`.
    Pred,
    /// `Gen_Prop_QRP_constraints`.
    Qrp,
    /// Constraint magic rewriting (may appear at most once in a sequence).
    Magic,
}

impl Step {
    /// Short name used in experiment output (`pred`, `qrp`, `mg`).
    pub fn short_name(&self) -> &'static str {
        match self {
            Step::Pred => "pred",
            Step::Qrp => "qrp",
            Step::Magic => "mg",
        }
    }
}

/// `Constraint_rewrite` (Section 4.5, Appendix C): minimum predicate
/// constraints, then minimum QRP constraints.
pub const CONSTRAINT_REWRITE: [Step; 2] = [Step::Pred, Step::Qrp];

/// The optimal ordering of Theorem 7.10: `pred, qrp, mg`.
pub const OPTIMAL_SEQUENCE: [Step; 3] = [Step::Pred, Step::Qrp, Step::Magic];

/// The result of applying a sequence of rewritings.
#[derive(Debug, Clone)]
pub struct SequenceResult {
    /// The final program; its query targets `query_pred` (which is the
    /// adorned predicate if Magic was part of the sequence).
    pub program: Program,
    /// The predicate the final query targets.
    pub query_pred: Pred,
}

/// Applies a sequence of `pred` / `qrp` / `mg` rewritings to a program with a
/// query, as studied in Section 7 (e.g. `P^{pred,qrp,mg}` vs
/// `P^{mg,pred,qrp}`), then deletes the rules no query predicate reaches.
///
/// Generation runs within [`GenOptions::default`]'s budgets; a `pred` or
/// `qrp` step whose generation does not converge leaves the program as it
/// was.  The magic step uses bound-if-ground adornments and keeps the rules'
/// constraints on the magic rules ([`MagicOptions::bound_if_ground`]).
/// `propagate` picks the disjunct handling of the `qrp` steps (Section 4.6).
pub fn apply_sequence(
    program: &Program,
    steps: &[Step],
    propagate: &PropagateOptions,
) -> Result<SequenceResult> {
    if steps.iter().filter(|s| **s == Step::Magic).count() > 1 {
        return Err(TransformError::UnsupportedProgram {
            reason: "the Magic Templates rewriting may be applied at most once".into(),
        });
    }
    let gen = GenOptions::default();
    let mut current = program.flattened();
    let mut query_pred = program
        .query()
        .and_then(|q| q.literals.first())
        .map(|l| l.predicate.clone())
        .ok_or(TransformError::MissingQuery)?;

    for step in steps {
        match step {
            Step::Pred => {
                let analysis = gen_predicate_constraints(&current, &gen);
                if analysis.converged {
                    current = gen_prop_predicate_constraints(&current, &analysis);
                }
            }
            Step::Qrp => {
                // QRP constraints flow from the auxiliary rule
                // `q#(V̄) :- <query body>` (Section 2), removed again after.
                let (with_aux, aux_pred) = current
                    .attach_query_rule()
                    .ok_or(TransformError::MissingQuery)?;
                let query_preds = BTreeSet::from([aux_pred.clone()]);
                let analysis = gen_qrp_constraints(&with_aux, &query_preds, &gen);
                if analysis.converged {
                    let propagated = gen_prop_qrp_constraints(&with_aux, &analysis, propagate);
                    let mut cleaned = Program::new();
                    for pred in propagated.edb_predicates() {
                        cleaned.declare_edb(pred);
                    }
                    for rule in propagated.rules() {
                        if rule.head.predicate != aux_pred {
                            cleaned.add_rule(rule.clone());
                        }
                    }
                    if let Some(q) = current.query() {
                        cleaned.set_query(q.clone());
                    }
                    current = cleaned;
                }
            }
            Step::Magic => {
                let MagicResult {
                    program: rewritten,
                    query_pred: adorned,
                } = magic_rewrite(&current, &MagicOptions::bound_if_ground())?;
                current = rewritten;
                query_pred = adorned;
            }
        }
    }
    Ok(SequenceResult {
        program: current.retain_query_reachable(),
        query_pred,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_constraints::{Atom, Var};
    use pcs_engine::{Database, EvalOptions, Evaluator, Value};
    use pcs_lang::parse_program;

    fn flights_program() -> Program {
        parse_program(
            "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n\
             r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.\n\
             r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.\n\
             r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), T = T1 + T2 + 30, C = C1 + C2.\n\
             ?- cheaporshort(madison, seattle, Time, Cost).",
        )
        .unwrap()
    }

    fn flights_db() -> Database {
        let mut db = Database::new();
        let legs = [
            ("madison", "chicago", 50, 100),
            ("chicago", "seattle", 230, 120),
            ("madison", "denver", 300, 400), // long and expensive
            ("denver", "seattle", 290, 500), // long and expensive
            ("chicago", "denver", 150, 90),
        ];
        for (s, d, t, c) in legs {
            db.add_ground(
                "singleleg",
                vec![Value::sym(s), Value::sym(d), Value::num(t), Value::num(c)],
            );
        }
        db
    }

    #[test]
    fn pred_qrp_prunes_irrelevant_flights_example_43() {
        let program = flights_program();
        let result =
            apply_sequence(&program, &CONSTRAINT_REWRITE, &PropagateOptions::default()).unwrap();

        // The rewritten program computes only ground facts and never derives
        // a flight with time > 240 and cost > 150 (Example 4.3).
        let db = flights_db();
        let plain = Evaluator::new(&program, EvalOptions::default()).evaluate(&db);
        let rewritten = Evaluator::new(&result.program, EvalOptions::default()).evaluate(&db);
        assert!(rewritten.only_ground_facts());
        assert!(rewritten.termination.is_fixpoint());

        let flight = Pred::new("flight");
        assert!(rewritten.count_for(&flight) <= plain.count_for(&flight));
        for fact in rewritten.facts_for(&flight) {
            let values = fact.ground_values().expect("ground flight facts");
            let time = values[2].as_num().unwrap();
            let cost = values[3].as_num().unwrap();
            assert!(
                !(time > 240.into() && cost > 150.into()),
                "irrelevant flight fact {fact} computed"
            );
        }
        // The original program does derive such irrelevant facts on this EDB.
        assert!(plain.facts_for(&flight).iter().any(|fact| {
            let values = fact.ground_values().unwrap();
            values[2].as_num().unwrap() > 240.into() && values[3].as_num().unwrap() > 150.into()
        }));

        // Query answers agree.
        let query = program.query().unwrap();
        assert_eq!(plain.answers(query).len(), rewritten.answers(query).len());
    }

    #[test]
    fn rewrite_requires_a_query() {
        let mut program = flights_program();
        program = Program::new()
            .with_rule(program.rules()[0].clone())
            .with_rule(program.rules()[2].clone());
        assert_eq!(
            apply_sequence(&program, &CONSTRAINT_REWRITE, &PropagateOptions::default())
                .unwrap_err(),
            TransformError::MissingQuery
        );
    }

    #[test]
    fn rules_no_query_predicate_reaches_are_deleted() {
        // The query reads `p` and `r`; nothing reads `z`.
        let program = parse_program(
            "p(X) :- b(X).\n\
             r(X) :- c(X).\n\
             z(X) :- c(X).\n\
             ?- p(X), r(X).",
        )
        .unwrap();
        for steps in [&[][..], &[Step::Pred], &[Step::Qrp], &CONSTRAINT_REWRITE] {
            let result = apply_sequence(&program, steps, &PropagateOptions::default()).unwrap();
            let heads: Vec<String> = result
                .program
                .rules()
                .iter()
                .map(|rule| rule.head.predicate.to_string())
                .collect();
            assert_eq!(heads, ["p", "r"], "{steps:?}");
        }
    }

    #[test]
    fn sequences_reject_double_magic() {
        let program = flights_program();
        let err = apply_sequence(
            &program,
            &[Step::Magic, Step::Magic],
            &PropagateOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TransformError::UnsupportedProgram { .. }));
    }

    #[test]
    fn optimal_sequence_computes_no_more_facts_than_magic_first() {
        // Theorem 7.8 / 7.10 on the Example 7.1 program.
        let program = parse_program(
            "rl: q(X, Y) :- a1(X, Y), X <= 4.\n\
             r2: a1(X, Y) :- b1(X, Z), a2(Z, Y).\n\
             r3: a2(X, Y) :- b2(X, Y).\n\
             r4: a2(X, Y) :- b2(X, Z), a2(Z, Y).\n\
             ?- q(U, V).",
        )
        .unwrap();
        let mut db = Database::new();
        for i in 0..12i64 {
            db.add_ground("b1", vec![Value::num(i), Value::num(i + 1)]);
            db.add_ground("b2", vec![Value::num(i + 1), Value::num(i + 2)]);
        }
        let options = PropagateOptions::default();
        let optimal = apply_sequence(&program, &OPTIMAL_SEQUENCE, &options).unwrap();
        let magic_first =
            apply_sequence(&program, &[Step::Magic, Step::Pred, Step::Qrp], &options).unwrap();
        let eval_optimal = Evaluator::new(&optimal.program, EvalOptions::default()).evaluate(&db);
        let eval_magic_first =
            Evaluator::new(&magic_first.program, EvalOptions::default()).evaluate(&db);
        assert!(eval_optimal.termination.is_fixpoint());
        assert!(eval_magic_first.termination.is_fixpoint());
        assert!(eval_optimal.total_facts() <= eval_magic_first.total_facts());
        // Both orderings produce the same answers to the query.
        assert_eq!(
            eval_optimal.answers(optimal.program.query().unwrap()).len(),
            eval_magic_first
                .answers(magic_first.program.query().unwrap())
                .len()
        );
    }

    #[test]
    fn qrp_step_prunes_a2_facts_in_example_71() {
        // Example 7.1 / D.1: applying qrp before magic restricts m_a2 by X<=4.
        let program = parse_program(
            "rl: q(X, Y) :- a1(X, Y), X <= 4.\n\
             r2: a1(X, Y) :- b1(X, Z), a2(Z, Y).\n\
             r3: a2(X, Y) :- b2(X, Y).\n\
             r4: a2(X, Y) :- b2(X, Z), a2(Z, Y).\n\
             ?- q(U, V).",
        )
        .unwrap();
        let mut db = Database::new();
        // b1 edges from small and large sources; only small ones are relevant.
        for i in 0..10i64 {
            db.add_ground("b1", vec![Value::num(i), Value::num(100 + i)]);
            db.add_ground("b2", vec![Value::num(100 + i), Value::num(101 + i)]);
        }
        let options = PropagateOptions::default();
        let qrp_mg = apply_sequence(&program, &[Step::Qrp, Step::Magic], &options).unwrap();
        let mg_qrp = apply_sequence(&program, &[Step::Magic, Step::Qrp], &options).unwrap();
        let eval_qrp_mg = Evaluator::new(&qrp_mg.program, EvalOptions::default()).evaluate(&db);
        let eval_mg_qrp = Evaluator::new(&mg_qrp.program, EvalOptions::default()).evaluate(&db);
        // P^{qrp,mg} computes a subset of the facts of P^{mg,qrp} (Example D.1).
        assert!(eval_qrp_mg.total_facts() <= eval_mg_qrp.total_facts());
    }

    #[test]
    fn rewritten_rules_carry_qrp_constraints() {
        let program = flights_program();
        let result =
            apply_sequence(&program, &CONSTRAINT_REWRITE, &PropagateOptions::default()).unwrap();
        // Every rule defining flight carries Time > 0 (from the predicate
        // constraint) plus one of the QRP disjuncts.
        let flight_rules = result.program.rules_for(&Pred::new("flight"));
        assert!(flight_rules.len() >= 2);
        for rule in flight_rules {
            let time_var = rule.head.args[2].vars().pop().unwrap();
            assert!(rule
                .constraint
                .implies_atom(&Atom::var_gt(Var::new(time_var.name()), 0)));
        }
    }
}
