//! Generation and propagation of minimum predicate constraints
//! (Section 4.4 and Appendix C of the paper).
//!
//! A *predicate constraint* on `p` is a constraint set satisfied by every `p`
//! fact derivable bottom-up, independent of the EDB (Definition 2.4).
//! `Gen_predicate_constraints` computes the minimum such constraint by
//! iterating the rules bottom-up (Theorem 4.5); the propagation step
//! (`Gen_Prop_predicate_constraints`) conjoins, for each body occurrence of a
//! predicate, the `PTOL` of its predicate constraint into the rule body
//! (Theorem 4.6).

use std::collections::BTreeMap;

use pcs_constraints::{ltop, ptol, Conjunction, ConstraintSet};
use pcs_lang::{Pred, Program, Rule};

/// The outcome of a constraint-generation procedure: the constraint set
/// computed for each predicate, plus convergence information.
#[derive(Debug, Clone)]
pub struct ConstraintAnalysis {
    /// The constraint set per predicate (argument-position form, `$i`).
    pub constraints: BTreeMap<Pred, ConstraintSet>,
    /// Whether a fixpoint was reached within the iteration budget.
    pub converged: bool,
    /// Number of iterations performed.
    pub iterations: usize,
}

impl ConstraintAnalysis {
    /// The constraint for one predicate (`true` when unknown).
    pub fn constraint_for(&self, pred: &Pred) -> ConstraintSet {
        self.constraints
            .get(pred)
            .cloned()
            .unwrap_or_else(ConstraintSet::truth)
    }
}

/// Options for the constraint-generation procedures.
#[derive(Debug, Clone, Copy)]
pub struct GenOptions {
    /// Maximum number of fixpoint iterations before giving up
    /// (the procedures are not guaranteed to terminate in general,
    /// Theorem 3.1).
    pub max_iterations: usize,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions { max_iterations: 64 }
    }
}

/// The inferred head constraint of a single rule, given constraint sets for
/// its body predicates (procedure `Single_step` of Appendix C).
pub fn inferred_head_constraint(
    rule: &Rule,
    body_constraint: &dyn Fn(&Pred) -> ConstraintSet,
) -> ConstraintSet {
    let mut acc = ConstraintSet::of(rule.constraint.clone());
    for literal in &rule.body {
        if acc.is_false() {
            break;
        }
        let body_set = body_constraint(&literal.predicate);
        let localized = ptol(&literal.pos_args(), &body_set);
        acc = acc.and(&localized);
    }
    ltop(&rule.head.pos_args(), &acc).simplify()
}

/// `Gen_predicate_constraints`: computes the minimum predicate constraint for
/// every derived predicate (Theorem 4.5).  A database predicate's constraint
/// is `true`: its base facts may hold any values.
///
/// When the procedure does not stabilize within `options.max_iterations`,
/// `converged` is `false` and the partial constraints must not be used for
/// optimization (they under-approximate the derivable facts).
pub fn gen_predicate_constraints(program: &Program, options: &GenOptions) -> ConstraintAnalysis {
    let program = program.flattened();
    let idb = program.idb_predicates();
    let mut current: BTreeMap<Pred, ConstraintSet> = BTreeMap::new();
    for pred in &idb {
        current.insert(pred.clone(), ConstraintSet::falsum());
    }
    for pred in program.edb_predicates() {
        current.insert(pred, ConstraintSet::truth());
    }

    let mut iterations = 0;
    let mut converged = false;
    while iterations < options.max_iterations {
        iterations += 1;
        let snapshot = current.clone();
        let lookup = |pred: &Pred| {
            snapshot
                .get(pred)
                .cloned()
                .unwrap_or_else(ConstraintSet::truth)
        };
        let mut new_sets: BTreeMap<Pred, ConstraintSet> = BTreeMap::new();
        for rule in program.rules() {
            let inferred = inferred_head_constraint(rule, &lookup);
            new_sets
                .entry(rule.head.predicate.clone())
                .and_modify(|existing| *existing = existing.or(&inferred))
                .or_insert(inferred);
        }
        let mut all_stable = true;
        for pred in &idb {
            let fresh = new_sets
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

/// `Gen_Prop_predicate_constraints`: conjoins the `PTOL` of each body
/// predicate's constraint into the rule body (Theorem 4.6).
///
/// A body literal whose predicate constraint is a non-trivial disjunction
/// splits the rule into one copy per (satisfiable) combination of disjuncts,
/// since rule bodies admit only conjunctions of constraints (footnote 4).
pub fn gen_prop_predicate_constraints(program: &Program, analysis: &ConstraintAnalysis) -> Program {
    let mut output = Program::new();
    for pred in program.edb_predicates() {
        output.declare_edb(pred);
    }
    if let Some(query) = program.query() {
        output.set_query(query.clone());
    }
    for rule in program.rules() {
        let mut variants: Vec<Conjunction> = vec![rule.constraint.clone()];
        for literal in &rule.body {
            let set = analysis.constraint_for(&literal.predicate);
            if set.is_trivially_true() {
                continue;
            }
            let localized = ptol(&literal.pos_args(), &set);
            let mut next = Vec::new();
            for variant in &variants {
                for disjunct in localized.disjuncts() {
                    let combined = variant.and(disjunct);
                    if combined.is_satisfiable() {
                        next.push(combined);
                    }
                }
            }
            variants = next;
        }
        let mut emitted: Vec<Rule> = Vec::new();
        for (i, constraint) in variants.into_iter().enumerate() {
            let mut new_rule =
                Rule::new(rule.head.clone(), rule.body.clone(), constraint.simplify());
            new_rule.label = match (&rule.label, i) {
                (Some(label), 0) => Some(label.clone()),
                (Some(label), i) => Some(format!("{label}_{}", i + 1)),
                (None, _) => None,
            };
            if !emitted.iter().any(|r: &Rule| {
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
    use pcs_constraints::{Atom, Var};
    use pcs_lang::parse_program;

    fn pos(i: usize) -> Var {
        Var::position(i)
    }

    #[test]
    fn example_42_predicate_constraint() {
        // Example 4.2: every `a` fact satisfies $2 <= $1.
        let program = parse_program(
            "r1: q(X, Y) :- a(X, Y), X <= 10.\n\
             r2: a(X, Y) :- p(X, Y), Y <= X.\n\
             r3: a(X, Y) :- a(X, Z), a(Z, Y).",
        )
        .unwrap();
        let analysis = gen_predicate_constraints(&program, &GenOptions::default());
        assert!(analysis.converged);
        let a_constraint = analysis.constraint_for(&Pred::new("a"));
        let expected = ConstraintSet::of(Conjunction::of(Atom::compare(
            pcs_constraints::LinearExpr::var(pos(2)),
            pcs_constraints::CmpOp::Le,
            pcs_constraints::LinearExpr::var(pos(1)),
        )));
        assert!(a_constraint.equivalent(&expected));
        // q inherits ($2 <= $1) & ($1 <= 10).
        let q_constraint = analysis.constraint_for(&Pred::new("q"));
        assert!(q_constraint.implies(&ConstraintSet::of_atom(Atom::var_le(pos(1), 10))));
    }

    #[test]
    fn flights_predicate_constraints_match_paper() {
        // Example 4.3: flight has minimum predicate constraint ($3>0)&($4>0);
        // cheaporshort's is the two-disjunct set quoted in the paper.
        let program = parse_program(
            "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n\
             r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.\n\
             r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.\n\
             r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), T = T1 + T2 + 30, C = C1 + C2.",
        )
        .unwrap();
        let analysis = gen_predicate_constraints(&program, &GenOptions::default());
        assert!(analysis.converged);
        let flight = analysis.constraint_for(&Pred::new("flight"));
        let expected_flight = ConstraintSet::of(Conjunction::from_atoms([
            Atom::var_gt(pos(3), 0),
            Atom::var_gt(pos(4), 0),
        ]));
        assert!(flight.equivalent(&expected_flight));

        let cheap = analysis.constraint_for(&Pred::new("cheaporshort"));
        let expected_cheap = ConstraintSet::from_disjuncts([
            Conjunction::from_atoms([
                Atom::var_gt(pos(3), 0),
                Atom::var_le(pos(3), 240),
                Atom::var_gt(pos(4), 0),
            ]),
            Conjunction::from_atoms([
                Atom::var_gt(pos(3), 0),
                Atom::var_gt(pos(4), 0),
                Atom::var_le(pos(4), 150),
            ]),
        ]);
        assert!(cheap.equivalent(&expected_cheap));
    }

    #[test]
    fn fib_minimum_predicate_constraint_does_not_stabilize() {
        // The minimum predicate constraint for fib is the infinite set of
        // Fibonacci pairs, so the generation procedure keeps adding disjuncts
        // (Example 4.4 instead introduces the non-minimum constraint $2 >= 1
        // by hand); the partial approximation is still sound from below.
        let program = parse_program(
            "fib(0, 1).\n\
             fib(1, 1).\n\
             fib(N, X) :- N > 1, fib(N - 1, X1), fib(N - 2, X2), X = X1 + X2.",
        )
        .unwrap();
        let analysis = gen_predicate_constraints(&program, &GenOptions { max_iterations: 5 });
        assert!(!analysis.converged);
        let fib = analysis.constraint_for(&Pred::new("fib"));
        // Every disjunct accumulated so far satisfies $2 >= 1 and $1 >= 0.
        assert!(fib.implies(&ConstraintSet::of_atom(Atom::var_ge(pos(2), 1))));
        assert!(fib.implies(&ConstraintSet::of_atom(Atom::var_ge(pos(1), 0))));
    }

    #[test]
    fn propagation_adds_constraints_to_body_occurrences() {
        let program = parse_program(
            "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n\
             r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.",
        )
        .unwrap();
        let analysis = gen_predicate_constraints(&program, &GenOptions::default());
        let rewritten = gen_prop_predicate_constraints(&program, &analysis);
        // r1 now also carries T > 0 and C > 0 from flight's predicate constraint.
        let r1 = &rewritten.rules_for(&Pred::new("cheaporshort"))[0];
        assert!(r1.constraint.implies_atom(&Atom::var_gt(Var::new("T"), 0)));
        assert!(r1.constraint.implies_atom(&Atom::var_gt(Var::new("C"), 0)));
        assert_eq!(rewritten.rules().len(), program.rules().len());
    }

    #[test]
    fn nonconverging_generation_is_reported() {
        // nat(Y) :- nat(X), Y = X + 1 keeps producing new disjuncts
        // ($1 = 0) ∨ ($1 = 1) ∨ ... and never stabilizes.
        let program = parse_program("nat(0).\nnat(Y) :- nat(X), Y = X + 1.").unwrap();
        let analysis = gen_predicate_constraints(&program, &GenOptions { max_iterations: 8 });
        assert!(!analysis.converged);
        assert_eq!(analysis.iterations, 8);
    }
}
