//! Generation and propagation of query-relevant predicate (QRP) constraints
//! (Sections 4.2/4.3 and Appendix C of the paper).
//!
//! A QRP constraint on `p` is a constraint set satisfied by every `p` fact
//! that is both derivable and *constraint-relevant* to a query answer
//! (Definition 2.6).  `Gen_QRP_constraints` starts from `true` on the query
//! predicate and `false` elsewhere and pushes constraints top-down through
//! the rule bodies using literal constraints (Proposition 4.1); the
//! propagation step rewrites the rules defining each predicate so that every
//! disjunct of its QRP constraint guards a copy of each rule, which is the
//! net effect of the paper's definition/unfold/fold sequence
//! (see [`crate::foldunfold`] for the individual steps).

use std::collections::{BTreeMap, BTreeSet};

use pcs_constraints::{ltop, ptol, ConstraintSet, Var};
use pcs_lang::{Pred, Program, Rule};

use crate::pred_constraints::{ConstraintAnalysis, GenOptions};

/// `Gen_QRP_constraints`: computes QRP constraints for every predicate of the
/// program, given the set of query predicates (Theorem 4.2).
///
/// If the procedure stabilizes, the result is a QRP constraint for every
/// predicate; combined with `Gen_Prop_predicate_constraints` it yields the
/// *minimum* QRP constraints under the conditions of Theorem 4.7.  When the
/// iteration budget is exhausted, `converged` is `false`; the trivially
/// correct constraint `true` should then be used instead (as the paper
/// suggests), which [`ConstraintAnalysis::constraint_for`] does not do
/// automatically — callers must check `converged`.
pub fn gen_qrp_constraints(
    program: &Program,
    query_preds: &BTreeSet<Pred>,
    options: &GenOptions,
) -> ConstraintAnalysis {
    let program = program.flattened();
    let all_preds = program.all_predicates();
    let mut current: BTreeMap<Pred, ConstraintSet> = BTreeMap::new();
    for pred in &all_preds {
        let initial = if query_preds.contains(pred) {
            ConstraintSet::truth()
        } else {
            ConstraintSet::falsum()
        };
        current.insert(pred.clone(), initial);
    }

    let mut iterations = 0;
    let mut converged = false;
    while iterations < options.max_iterations {
        iterations += 1;
        let snapshot = current.clone();
        let mut inferred: BTreeMap<Pred, ConstraintSet> = BTreeMap::new();
        for rule in program.rules() {
            let head_set = snapshot
                .get(&rule.head.predicate)
                .cloned()
                .unwrap_or_else(ConstraintSet::falsum);
            if head_set.is_false() {
                continue;
            }
            // Desired constraint on the head, localized to the rule variables,
            // conjoined with the rule's own constraints.
            let head_local =
                ptol(&rule.head.pos_args(), &head_set).and_conjunction(&rule.constraint);
            if !head_local.is_satisfiable() {
                continue;
            }
            for literal in &rule.body {
                // Literal constraint (Proposition 4.1): project onto the
                // variables of this body literal.
                let keep: BTreeSet<Var> = literal.vars().into_iter().collect();
                let literal_constraint = head_local.project(&keep).simplify();
                let localized = ltop(&literal.pos_args(), &literal_constraint);
                inferred
                    .entry(literal.predicate.clone())
                    .and_modify(|existing| *existing = existing.or(&localized))
                    .or_insert(localized);
            }
        }
        let mut all_stable = true;
        for pred in &all_preds {
            let fresh = inferred
                .get(pred)
                .cloned()
                .unwrap_or_else(ConstraintSet::falsum);
            let existing = current
                .get(pred)
                .cloned()
                .unwrap_or_else(ConstraintSet::falsum);
            if !fresh.implies(&existing) {
                all_stable = false;
                current.insert(pred.clone(), existing.or(&fresh));
            }
        }
        if all_stable {
            converged = true;
            break;
        }
    }

    ConstraintAnalysis {
        constraints: current,
        converged,
        iterations,
    }
}

/// Options for QRP propagation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PropagateOptions {
    /// Rewrite each QRP constraint so that no two disjuncts overlap before
    /// propagating (the first remedy of Section 4.6 against duplicate
    /// derivations; may increase the number of rules exponentially).
    pub non_overlapping: bool,
    /// Weaken each QRP constraint to a single conjunction before propagating
    /// (the second remedy of Section 4.6; avoids rule blow-up but the result
    /// is no longer the minimum QRP constraint).
    pub single_disjunct: bool,
}

/// `Gen_Prop_QRP_constraints`: propagates QRP constraints into the rules
/// defining each derived predicate (Theorems 4.3/4.4).
///
/// For a predicate whose QRP constraint has `m` disjuncts, each defining rule
/// is copied `m` times with the `PTOL` of one disjunct added to the body
/// (unsatisfiable and duplicate copies are dropped); this is the composite
/// effect of the paper's definition/unfold/fold sequence with the primed
/// predicate renamed back to the original.  Body occurrences need no change
/// because every rule defining the predicate is now guarded.
pub fn gen_prop_qrp_constraints(
    program: &Program,
    analysis: &ConstraintAnalysis,
    options: &PropagateOptions,
) -> Program {
    let mut output = Program::new();
    for pred in program.edb_predicates() {
        output.declare_edb(pred);
    }
    if let Some(query) = program.query() {
        output.set_query(query.clone());
    }
    for rule in program.rules() {
        let pred = &rule.head.predicate;
        let mut qrp = analysis.constraint_for(pred);
        if qrp.is_trivially_true() || qrp.is_false() {
            // Nothing useful to push (or the predicate is provably irrelevant
            // to the query; keeping the rule is still correct).
            output.add_rule(rule.clone());
            continue;
        }
        if options.single_disjunct {
            qrp = ConstraintSet::of(qrp.weaken_to_single_conjunction());
        } else if options.non_overlapping {
            qrp = qrp.non_overlapping();
        }
        let localized = ptol(&rule.head.pos_args(), &qrp);
        let mut emitted: Vec<Rule> = Vec::new();
        for (i, disjunct) in localized.disjuncts().iter().enumerate() {
            let combined = rule.constraint.and(disjunct);
            if !combined.is_satisfiable() {
                continue;
            }
            let mut new_rule = Rule::new(rule.head.clone(), rule.body.clone(), combined.simplify());
            new_rule.label = match (&rule.label, i) {
                (Some(label), 0) => Some(label.clone()),
                (Some(label), i) => Some(format!("{label}_{}", i + 1)),
                (None, _) => None,
            };
            if !emitted.iter().any(|r| {
                r.head == new_rule.head
                    && r.body == new_rule.body
                    && r.constraint.equivalent(&new_rule.constraint)
            }) {
                emitted.push(new_rule);
            }
        }
        for r in emitted {
            output.add_rule(r);
        }
    }
    output
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_constraints::{Atom, CmpOp, Conjunction, LinearExpr};
    use pcs_lang::parse_program;

    fn pos(i: usize) -> Var {
        Var::position(i)
    }

    fn query_set(name: &str) -> BTreeSet<Pred> {
        [Pred::new(name)].into_iter().collect()
    }

    #[test]
    fn example_41_minimum_qrp_constraints() {
        // Example 4.1: QRP(p1) = ($1 + $2 <= 6) & ($1 >= 2), QRP(p2) = $1 <= 4.
        let program = parse_program(
            "r1: q(X) :- p1(X, Y), p2(Y), X + Y <= 6, X >= 2.\n\
             r2: p1(X, Y) :- b1(X, Y).\n\
             r3: p2(X) :- b2(X).",
        )
        .unwrap();
        let analysis = gen_qrp_constraints(&program, &query_set("q"), &GenOptions::default());
        assert!(analysis.converged);

        let p1 = analysis.constraint_for(&Pred::new("p1"));
        let expected_p1 = ConstraintSet::of(Conjunction::from_atoms([
            Atom::compare(
                LinearExpr::var(pos(1)) + LinearExpr::var(pos(2)),
                CmpOp::Le,
                LinearExpr::constant(6),
            ),
            Atom::var_ge(pos(1), 2),
        ]));
        assert!(p1.equivalent(&expected_p1));

        let p2 = analysis.constraint_for(&Pred::new("p2"));
        let expected_p2 = ConstraintSet::of_atom(Atom::var_le(pos(1), 4));
        assert!(p2.equivalent(&expected_p2));

        // The query-side bounds reach the EDB predicates too: only b1- and
        // b2-facts inside them are relevant to the query.
        assert!(analysis
            .constraint_for(&Pred::new("b1"))
            .equivalent(&expected_p1));
        assert!(analysis
            .constraint_for(&Pred::new("b2"))
            .equivalent(&expected_p2));

        // Propagation pushes the constraints into r2 and r3.
        let rewritten = gen_prop_qrp_constraints(&program, &analysis, &PropagateOptions::default());
        let r3 = &rewritten.rules_for(&Pred::new("p2"))[0];
        assert!(r3.constraint.implies_atom(&Atom::var_le(Var::new("X"), 4)));
        let r2 = &rewritten.rules_for(&Pred::new("p1"))[0];
        assert!(r2.constraint.implies_atom(&Atom::var_ge(Var::new("X"), 2)));
    }

    #[test]
    fn example_42_needs_predicate_constraints_first() {
        // Without predicate constraints, Gen_QRP infers `true` for `a`
        // (Example 4.2); with the constraint $2 <= $1 added to the body
        // occurrences (program P1), the minimum QRP ($1<=10)&($2<=$1) emerges.
        let without = parse_program(
            "r1: q(X, Y) :- a(X, Y), X <= 10.\n\
             r2: a(X, Y) :- p(X, Y), Y <= X.\n\
             r3: a(X, Y) :- a(X, Z), a(Z, Y).",
        )
        .unwrap();
        let analysis = gen_qrp_constraints(&without, &query_set("q"), &GenOptions::default());
        assert!(analysis.converged);
        assert!(analysis.constraint_for(&Pred::new("a")).is_trivially_true());

        let with = parse_program(
            "r1: q(X, Y) :- a(X, Y), X <= 10, Y <= X.\n\
             r2: a(X, Y) :- p(X, Y), Y <= X.\n\
             r3: a(X, Y) :- a(X, Z), Z <= X, a(Z, Y), Y <= Z.",
        )
        .unwrap();
        let analysis = gen_qrp_constraints(&with, &query_set("q"), &GenOptions::default());
        assert!(analysis.converged);
        let a = analysis.constraint_for(&Pred::new("a"));
        let expected = ConstraintSet::of(Conjunction::from_atoms([
            Atom::var_le(pos(1), 10),
            Atom::compare(LinearExpr::var(pos(2)), CmpOp::Le, LinearExpr::var(pos(1))),
        ]));
        assert!(a.equivalent(&expected));
        // Example 5.1: the procedure stabilizes in very few iterations.
        assert!(analysis.iterations <= 4);
    }

    #[test]
    fn propagation_with_disjunctive_constraints_copies_rules() {
        // Flights-style: a predicate with a two-disjunct QRP constraint gets
        // one rule copy per satisfiable disjunct.
        let program = parse_program(
            "q(S, D, T, C) :- cheaporshort(S, D, T, C).\n\
             cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n\
             cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.\n\
             flight(S, D, T, C) :- singleleg(S, D, T, C), C > 0, T > 0.",
        )
        .unwrap();
        let analysis = gen_qrp_constraints(&program, &query_set("q"), &GenOptions::default());
        assert!(analysis.converged);
        let flight_qrp = analysis.constraint_for(&Pred::new("flight"));
        assert_eq!(flight_qrp.num_disjuncts(), 2);
        let rewritten = gen_prop_qrp_constraints(&program, &analysis, &PropagateOptions::default());
        // The single nonrecursive flight rule becomes two copies.
        assert_eq!(rewritten.rules_for(&Pred::new("flight")).len(), 2);
        // With the single-disjunct weakening, it stays a single rule.
        let weakened = gen_prop_qrp_constraints(
            &program,
            &analysis,
            &PropagateOptions {
                single_disjunct: true,
                ..Default::default()
            },
        );
        assert_eq!(weakened.rules_for(&Pred::new("flight")).len(), 1);
    }
}
