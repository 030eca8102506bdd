//! Answering the query from the relation that already holds it.
//!
//! After the constraint rewritings the query predicate `p` is often a
//! filtered copy of one predicate `q`: every rule of `p` reads
//! `p(X̄) :- q(X̄), A_i`, and Theorems 4.3/4.4 have pushed `∨ A_i` into the
//! rules of `q` as its QRP constraint (on flights, `flight` carries
//! `T <= 240 ∨ C <= 150`).  Every derived `q` fact is then an answer, and
//! storing `p` only copies `q`.  [`retarget_query`] deletes `p`'s rules and
//! points the query at `q`: the unfold step of Appendix A applied to the
//! query literal, or relation inlining in Soufflé's terms (Jordan, Scholz &
//! Subotić, CAV 2016).
//!
//! Every check is local to the rewritten rules.  Like every rewriting, the
//! step assumes base facts sit on EDB predicates only, never on `p` or `q`.

use std::collections::BTreeMap;

use pcs_constraints::{ConstraintSet, Var};
use pcs_lang::{Literal, Pred, Program, Query, Rule, Term};

/// A query retargeted by [`retarget_query`].
#[derive(Debug, Clone)]
pub struct Retarget {
    /// The program without `p`'s rules, its query on `q`.
    pub program: Program,
    /// `p(X̄)`: the head of `p`'s first rule.
    pub answer: Literal,
    /// `q(X̄)`: the literal `p`'s first rule copies.
    pub source: Literal,
    /// The literal whose answers are `p`'s facts: `q(X̄)` with the query's
    /// constants at the positions a magic guard binds.
    pub listing: Literal,
}

impl Retarget {
    /// The one-line account `Optimized::explain` prints:
    /// `answer p(X̄) from q(X̄)`.
    pub fn render(&self) -> String {
        format!("answer {} from {}", self.answer, self.source)
    }
}

/// Points the query of a rewritten program at the predicate its query
/// predicate `p` copies, when four conditions hold:
///
/// 1. the query is one literal, on `p`, and no rule body reads `p`;
/// 2. every rule of `p` is `p(X̄) :- q(X̄), A_i` for one `q ≠ p`, with `X̄`
///    distinct variables, `A_i` over `X̄` alone and, under magic, at most
///    one guard `m_p(..)` over head variables;
/// 3. under magic, the only rule of `m_p` is the seed, whose arguments are
///    the query's own at the guard's positions and whose constraint is the
///    query's, and every rule of `p` guards the same head positions;
/// 4. `q` is defined by rules, each with a head of distinct variables and a
///    constraint that implies `∨ A_i` on the head positions.
///
/// Returns `None`, leaving the program as it is, when any fails.  The magic
/// rules and the seed stay.
pub fn retarget_query(program: &Program) -> Option<Retarget> {
    let query = program.query()?;
    let [literal] = query.literals.as_slice() else {
        return None;
    };
    let p = &literal.predicate;
    let reads_p = program
        .rules()
        .iter()
        .any(|rule| rule.body.iter().any(|l| &l.predicate == p));
    if reads_p {
        return None;
    }
    let rules = program.rules_for(p);
    let mut source: Option<&Literal> = None;
    let mut guarded: Option<Vec<bool>> = None;
    let mut answers = ConstraintSet::falsum();
    for rule in &rules {
        let (copied, guard) = copy_of(rule, p)?;
        if source.get_or_insert(copied).predicate != copied.predicate {
            return None;
        }
        if let Some(guard) = guard {
            if !guard_is_the_query(program, query, rule, guard) {
                return None;
            }
        }
        let positions: Vec<bool> = rule
            .head
            .args
            .iter()
            .map(|arg| guard.is_some_and(|guard| guard.args.contains(arg)))
            .collect();
        if guarded.get_or_insert_with(|| positions.clone()) != &positions {
            return None;
        }
        answers = answers.or(&ConstraintSet::of(
            rule.constraint.rename(&on_positions(&rule.head)),
        ));
    }
    let source = source?;
    let q = &source.predicate;
    let listing = Literal::new(
        q.clone(),
        source
            .args
            .iter()
            .zip(&literal.args)
            .zip(guarded?)
            .map(|((copied, asked), guarded)| {
                if guarded && !matches!(asked, Term::Var(_)) {
                    asked.clone()
                } else {
                    copied.clone()
                }
            })
            .collect(),
    );
    let q_rules = program.rules_for(q);
    if q_rules.is_empty() {
        return None;
    }
    for rule in q_rules {
        if !rule.head.args_are_distinct_vars() {
            return None;
        }
        let constraint = ConstraintSet::of(rule.constraint.rename(&on_positions(&rule.head)));
        if !constraint.implies(&answers) {
            return None;
        }
    }

    let mut retargeted = Program::new();
    for pred in program.edb_predicates() {
        retargeted.declare_edb(pred);
    }
    for rule in program.rules() {
        if &rule.head.predicate != p {
            retargeted.add_rule(rule.clone());
        }
    }
    retargeted.set_query(Query::with_constraint(
        vec![literal.with_predicate(q.clone())],
        query.constraint.clone(),
    ));
    Some(Retarget {
        program: retargeted,
        answer: rules[0].head.clone(),
        source: source.clone(),
        listing,
    })
}

/// For a rule `p(X̄) :- [m_p(..),] q(X̄), A` with `X̄` distinct variables and
/// `A` over `X̄`, the literal `q(X̄)` and the guard, if any.
fn copy_of<'r>(rule: &'r Rule, p: &Pred) -> Option<(&'r Literal, Option<&'r Literal>)> {
    let head = &rule.head;
    if !head.args_are_distinct_vars() {
        return None;
    }
    let head_vars = head.vars();
    if !rule.constraint.vars().iter().all(|v| head_vars.contains(v)) {
        return None;
    }
    let magic = p.magic();
    let mut copied = None;
    let mut guard = None;
    for literal in &rule.body {
        let slot = if literal.predicate == magic {
            &mut guard
        } else {
            &mut copied
        };
        if slot.replace(literal).is_some() {
            return None;
        }
    }
    // Condition 1 already keeps `p` out of every body, so `q ≠ p`.
    let copied = copied.filter(|literal| literal.args == head.args)?;
    let guard_over_head = guard.map_or(true, |guard| {
        guard
            .args
            .iter()
            .all(|arg| matches!(arg, Term::Var(v) if head_vars.contains(v)))
    });
    guard_over_head.then_some((copied, guard))
}

/// Whether `m_p`'s only rule is the seed, and the seed holds exactly the
/// query's arguments at the positions `guard` reads in `rule`'s head.
fn guard_is_the_query(program: &Program, query: &Query, rule: &Rule, guard: &Literal) -> bool {
    let [seed] = program.rules_for(&guard.predicate)[..] else {
        return false;
    };
    if !seed.body.is_empty()
        || seed.constraint != query.constraint
        || seed.head.arity() != guard.arity()
    {
        return false;
    }
    let asked = &query.literals[0];
    guard.args.iter().zip(&seed.head.args).all(|(arg, seeded)| {
        rule.head
            .args
            .iter()
            .position(|head_arg| head_arg == arg)
            .is_some_and(|at| asked.args.get(at) == Some(seeded))
    })
}

/// Renames a head of distinct variables onto the positions `$1..$n`.
fn on_positions(head: &Literal) -> impl Fn(&Var) -> Var {
    let positions: BTreeMap<Var, Var> = head
        .args
        .iter()
        .enumerate()
        .filter_map(|(i, arg)| match arg {
            Term::Var(v) => Some((v.clone(), Var::position(i + 1))),
            _ => None,
        })
        .collect();
    move |v: &Var| positions.get(v).cloned().unwrap_or_else(|| v.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_lang::parse_program;

    /// The query of `text` after [`retarget_query`], or `None`.
    fn retargeted(text: &str) -> Option<String> {
        let program = parse_program(text).unwrap().flattened();
        retarget_query(&program).map(|r| r.program.query().unwrap().to_string())
    }

    const COPY: &str = "p(X, Y) :- q(X, Y), X <= 4.\n\
                        p(X, Y) :- q(X, Y), Y <= 0.\n\
                        q(X, Y) :- b(X, Y), X <= 3.\n\
                        q(X, Y) :- b(X, Z), q(Z, Y), Y <= -1.\n";

    #[test]
    fn a_filtered_copy_is_answered_from_its_source() {
        let program = parse_program(&format!("{COPY}?- p(U, 7), U >= 1.")).unwrap();
        let retarget = retarget_query(&program).unwrap();
        assert_eq!(
            retarget.program.query().unwrap().to_string(),
            "?- -U <= -1, q(U, 7)."
        );
        assert_eq!(retarget.render(), "answer p(X, Y) from q(X, Y)");
        assert_eq!(retarget.listing.to_string(), "q(X, Y)");
        // p's rules go; every other rule stays, in order.
        let kept: Vec<&Rule> = program
            .rules()
            .iter()
            .filter(|rule| rule.head.predicate != Pred::new("p"))
            .collect();
        assert_eq!(retarget.program.rules().iter().collect::<Vec<_>>(), kept);
    }

    #[test]
    fn each_condition_keeps_the_program_when_it_fails() {
        // Condition 1: two query literals, or a body reading p.
        assert_eq!(retargeted(&format!("{COPY}?- p(U, V), b(U, V).")), None);
        assert_eq!(
            retargeted(&format!("{COPY}r(X) :- p(X, Y).\n?- p(U, V).")),
            None
        );
        // Condition 2: two source predicates, permuted or repeated
        // variables, a constraint over a body-only variable.
        for rule in [
            "p(X, Y) :- b(X, Y), X <= 4.",
            "p(X, Y) :- q(Y, X), X <= 4.",
            "p(X, X) :- q(X, X).",
            "p(X, Y) :- q(X, Y), b(X, Z), Z <= 4.",
        ] {
            assert_eq!(
                retargeted(&format!("{COPY}{rule}\n?- p(U, V).")),
                None,
                "{rule}"
            );
        }
        // Condition 4: a rule of q with a constant in its head, or one whose
        // constraint does not imply X <= 4 ∨ Y <= 0; or q with no rules.
        for rule in ["q(1, Y) :- b(1, Y).", "q(X, Y) :- b(X, Y), X <= 5."] {
            assert_eq!(
                retargeted(&format!("{COPY}{rule}\n?- p(U, V).")),
                None,
                "{rule}"
            );
        }
        assert_eq!(retargeted("p(X) :- b(X), X <= 4.\n?- p(U)."), None);
        // And the unchanged program, for contrast.
        assert_eq!(
            retargeted(&format!("{COPY}?- p(U, V).")).unwrap(),
            "?- q(U, V)."
        );
    }

    #[test]
    fn a_magic_guard_must_hold_just_the_query_constants() {
        let program = |seed: &str, query: &str| {
            format!(
                "p_bf(X, Y) :- m_p_bf(X), q_bf(X, Y), X <= 4.\n\
                 q_bf(X, Y) :- m_q_bf(X), b(X, Y), X <= 3.\n\
                 m_q_bf(X) :- m_p_bf(X).\n\
                 {seed}\n{query}"
            )
        };
        let retarget =
            retarget_query(&parse_program(&program("m_p_bf(2).", "?- p_bf(2, V).")).unwrap())
                .unwrap();
        assert_eq!(
            retarget.program.query().unwrap().to_string(),
            "?- q_bf(2, V)."
        );
        // p_bf's facts are q_bf's with the seeded constant.
        assert_eq!(retarget.listing.to_string(), "q_bf(2, Y)");
        // A second rule of p_bf without the guard.
        assert_eq!(
            retargeted(&program(
                "m_p_bf(2).\np_bf(X, Y) :- q_bf(X, Y), Y <= 0.",
                "?- p_bf(2, V)."
            )),
            None
        );
        // The seed's constant differs from the query's.
        assert_eq!(retargeted(&program("m_p_bf(3).", "?- p_bf(2, V).")), None);
        // m_p_bf has a rule besides the seed.
        assert_eq!(
            retargeted(&program(
                "m_p_bf(2).\nm_p_bf(X) :- b(X, Y).",
                "?- p_bf(2, V)."
            )),
            None
        );
    }
}
