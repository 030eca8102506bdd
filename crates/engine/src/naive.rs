//! A deliberately naive reference interpreter, used as a conformance oracle.
//!
//! This module re-implements the rule-application semantics of Section 2
//! from first principles, with none of the production evaluator's machinery:
//! no per-position indexes, no semi-naive deltas or windows, no body
//! reordering, and no constraint-fact-only subsumption
//! shortcut — every round re-applies every rule to every combination of the
//! facts visible at the round boundary, and every insertion does a full
//! pairwise subsumption scan.  It shares only the constraint algebra
//! (`pcs-constraints`) and the [`Fact`] normalization with the production
//! cores, so the two implementations can disagree exactly where an
//! evaluation-strategy bug hides.
//!
//! `tests/oracle_conformance.rs` differentially tests both production join
//! cores against this oracle across every rewriting strategy.  The oracle is
//! exponential-ish in places (naive evaluation re-derives everything every
//! round); keep the workloads small.
//!
//! One deliberate semantic mirror: like the production cores' rule
//! application, a symbolic constant in a body literal does not match a
//! *free* fact position (free positions range over the reals as soon as a
//! rule body inspects them) — see `match_stored_fact` in `eval/matching.rs`.

use std::collections::BTreeMap;

use pcs_constraints::{Atom, CmpOp, Conjunction, LinearExpr, Var};
use pcs_lang::{Literal, Pred, Program, Rule, Symbol, Term};

use crate::database::Database;
use crate::fact::{Binding, Fact};
use crate::limits::{EvalLimits, Termination};
use crate::value::Value;

/// The result of a naive reference evaluation.
#[derive(Debug)]
pub struct NaiveResult {
    /// The computed facts, per predicate (EDB relations included), in
    /// insertion order.
    pub relations: BTreeMap<Pred, Vec<Fact>>,
    /// Why the evaluation stopped.
    pub termination: Termination,
}

impl NaiveResult {
    /// The facts computed for a predicate.
    pub fn facts_for(&self, pred: &Pred) -> &[Fact] {
        self.relations.get(pred).map_or(&[], Vec::as_slice)
    }

    /// Number of facts computed for a predicate.
    pub fn count_for(&self, pred: &Pred) -> usize {
        self.facts_for(pred).len()
    }

    /// Total number of facts across all predicates.
    pub fn total_facts(&self) -> usize {
        self.relations.values().map(Vec::len).sum()
    }
}

/// A partial derivation: symbol bindings, the accumulated conjunction (rule
/// constraints, fact constraints, and every induced equality — nothing is
/// eagerly resolved; Fourier–Motzkin does all the work at the end), and a
/// fresh-variable counter for renaming fact constraints apart.
#[derive(Clone)]
struct Match {
    sym: BTreeMap<Var, Symbol>,
    conj: Conjunction,
    fresh: u64,
}

impl Match {
    fn start(rule: &Rule) -> Match {
        Match {
            sym: BTreeMap::new(),
            conj: rule.constraint.clone(),
            fresh: 0,
        }
    }
}

/// Extends a partial derivation by matching `literal` against `fact`.
fn extend(current: &Match, literal: &Literal, fact: &Fact) -> Option<Match> {
    if literal.arity() != fact.arity() {
        return None;
    }
    let mut m = current.clone();
    // Rename the fact's residual constraint onto per-derivation fresh
    // variables so facts of the same predicate stay apart.
    let mut fresh_vars: Vec<Option<Var>> = vec![None; fact.arity()];
    for (i, binding) in fact.bindings().iter().enumerate() {
        if matches!(binding, Binding::Free) {
            m.fresh += 1;
            fresh_vars[i] = Some(Var::new(format!("_n{}p{}", m.fresh, i + 1)));
        }
    }
    if !fact.constraint().is_trivially_true() {
        let renamed = fact.constraint().rename(&|v: &Var| {
            v.position_index()
                .and_then(|i| fresh_vars.get(i - 1).cloned().flatten())
                .unwrap_or_else(|| v.clone())
        });
        for atom in renamed.atoms() {
            m.conj.push(atom.clone());
        }
    }
    for (i, (term, binding)) in literal.args.iter().zip(fact.bindings()).enumerate() {
        match binding {
            Binding::Bound(Value::Sym(sym)) => match term {
                Term::Sym(s) => {
                    if s != sym {
                        return None;
                    }
                }
                Term::Var(x) => {
                    // A variable already used in arithmetic cannot name a
                    // symbol, and two symbol bindings must agree.
                    if m.conj.contains_var(x) {
                        return None;
                    }
                    match m.sym.get(x) {
                        Some(existing) if existing != sym => return None,
                        _ => {
                            m.sym.insert(x.clone(), *sym);
                        }
                    }
                }
                Term::Num(_) | Term::Expr(_) => return None,
            },
            Binding::Bound(bound) => {
                let n = bound.as_num().expect("symbol bindings handled above");
                let value = LinearExpr::constant(n);
                match term {
                    Term::Sym(_) => return None,
                    Term::Num(k) => {
                        if *k != n {
                            return None;
                        }
                    }
                    Term::Var(x) => {
                        if m.sym.contains_key(x) {
                            return None;
                        }
                        m.conj
                            .push(Atom::compare(LinearExpr::var(x.clone()), CmpOp::Eq, value));
                    }
                    Term::Expr(e) => {
                        if e.vars().any(|v| m.sym.contains_key(v)) {
                            return None;
                        }
                        m.conj.push(Atom::compare(e.clone(), CmpOp::Eq, value));
                    }
                }
            }
            Binding::Free => {
                let fresh = fresh_vars[i].clone().expect("free positions were renamed");
                let slot = LinearExpr::var(fresh);
                match term {
                    // Mirrors the production cores: a symbol does not match
                    // a free position.
                    Term::Sym(_) => return None,
                    Term::Num(k) => {
                        m.conj
                            .push(Atom::compare(LinearExpr::constant(*k), CmpOp::Eq, slot));
                    }
                    Term::Var(x) => {
                        if m.sym.contains_key(x) {
                            return None;
                        }
                        m.conj
                            .push(Atom::compare(LinearExpr::var(x.clone()), CmpOp::Eq, slot));
                    }
                    Term::Expr(e) => {
                        if e.vars().any(|v| m.sym.contains_key(v)) {
                            return None;
                        }
                        m.conj.push(Atom::compare(e.clone(), CmpOp::Eq, slot));
                    }
                }
            }
        }
    }
    Some(m)
}

/// Builds the head fact of a completed derivation; `None` when the
/// accumulated conjunction is unsatisfiable.
fn head_fact(rule: &Rule, m: &Match) -> Option<Fact> {
    let mut constraint = m.conj.clone();
    let mut bindings = Vec::with_capacity(rule.head.arity());
    for (i, term) in rule.head.args.iter().enumerate() {
        match term {
            Term::Sym(s) => bindings.push(Binding::Bound(Value::Sym(*s))),
            Term::Num(n) => bindings.push(Binding::Bound(Value::num(*n))),
            Term::Var(x) => match m.sym.get(x) {
                Some(sym) => bindings.push(Binding::Bound(Value::Sym(*sym))),
                None => {
                    bindings.push(Binding::Free);
                    constraint.push(Atom::compare(
                        LinearExpr::var(Var::position(i + 1)),
                        CmpOp::Eq,
                        LinearExpr::var(x.clone()),
                    ));
                }
            },
            Term::Expr(_) => unreachable!("the oracle evaluates flattened rules"),
        }
    }
    // `Fact::new` checks satisfiability, projects onto the free positions,
    // and normalizes pinned positions to ground bindings.
    Fact::new(rule.head.predicate.clone(), bindings, constraint)
}

/// Applies one rule to every combination of visible facts, collecting the
/// satisfiable head facts.
fn apply_rule(
    rule: &Rule,
    relations: &BTreeMap<Pred, Vec<Fact>>,
    visible: &BTreeMap<Pred, usize>,
    out: &mut Vec<Fact>,
) {
    fn recurse(
        rule: &Rule,
        index: usize,
        m: Match,
        relations: &BTreeMap<Pred, Vec<Fact>>,
        visible: &BTreeMap<Pred, usize>,
        out: &mut Vec<Fact>,
    ) {
        if index == rule.body.len() {
            if let Some(fact) = head_fact(rule, &m) {
                out.push(fact);
            }
            return;
        }
        let literal = &rule.body[index];
        let facts: &[Fact] = relations.get(&literal.predicate).map_or(&[], Vec::as_slice);
        let limit = visible
            .get(&literal.predicate)
            .copied()
            .unwrap_or(0)
            .min(facts.len());
        for fact in &facts[..limit] {
            if let Some(next) = extend(&m, literal, fact) {
                recurse(rule, index + 1, next, relations, visible, out);
            }
        }
    }
    recurse(rule, 0, Match::start(rule), relations, visible, out);
}

/// Inserts a fact unless a single stored fact subsumes it — the full
/// pairwise scan, with no ground hash index and no constraint-fact shortcut.
fn insert(relations: &mut BTreeMap<Pred, Vec<Fact>>, fact: Fact) -> bool {
    let facts = relations.entry(fact.predicate().clone()).or_default();
    if facts.iter().any(|known| known.subsumes(&fact)) {
        return false;
    }
    facts.push(fact);
    true
}

/// Evaluates `program` against `db` bottom-up by naive iteration: every
/// round re-applies every rule to every combination of the facts stored at
/// the round boundary, until a round derives nothing new or a limit trips.
///
/// Limits are enforced at round granularity (the oracle favors obviousness
/// over precision); use it on workloads that reach a fixpoint.
pub fn evaluate(program: &Program, db: &Database, limits: &EvalLimits) -> NaiveResult {
    let program = program.flattened();
    let mut relations: BTreeMap<Pred, Vec<Fact>> = BTreeMap::new();
    for pred in program.all_predicates() {
        relations.entry(pred).or_default();
    }
    let mut total = 0usize;
    for fact in db.all_facts() {
        if insert(&mut relations, fact.clone()) {
            total += 1;
        }
    }
    let mut derivations = 0usize;
    let mut rounds = 0usize;
    let termination = loop {
        if rounds >= limits.max_iterations {
            break Termination::IterationLimit;
        }
        if total >= limits.max_facts {
            break Termination::FactLimit;
        }
        if derivations >= limits.max_derivations {
            break Termination::DerivationLimit;
        }
        let visible: BTreeMap<Pred, usize> = relations
            .iter()
            .map(|(pred, facts)| (pred.clone(), facts.len()))
            .collect();
        let mut derived: Vec<Fact> = Vec::new();
        for rule in program.rules() {
            apply_rule(rule, &relations, &visible, &mut derived);
        }
        derivations += derived.len();
        let mut new = 0usize;
        for fact in derived {
            if insert(&mut relations, fact) {
                new += 1;
                total += 1;
            }
        }
        rounds += 1;
        if new == 0 {
            break Termination::Fixpoint;
        }
    };
    NaiveResult {
        relations,
        termination,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_lang::parse_program;

    fn naive(source: &str, db: &Database) -> NaiveResult {
        let program = parse_program(source).unwrap();
        evaluate(&program, db, &EvalLimits::default())
    }

    #[test]
    fn transitive_closure_matches_the_expected_count() {
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let result = naive(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
            &db,
        );
        assert!(result.termination.is_fixpoint());
        assert_eq!(result.count_for(&Pred::new("path")), 6);
    }

    #[test]
    fn constraint_facts_and_subsumption_work_without_shortcuts() {
        let db = Database::new();
        let result = naive(
            "p(X) :- X <= 10.\n\
             q(X) :- p(X), X >= 8.\n\
             q(9).",
            &db,
        );
        assert!(result.termination.is_fixpoint());
        assert_eq!(result.count_for(&Pred::new("p")), 1);
        // q(9) fires in round one, before the broader constraint fact is
        // derivable; insertion-time subsumption never evicts, so both stay —
        // exactly what the production cores store for this program.
        assert_eq!(result.count_for(&Pred::new("q")), 2);
        // A later ground derivation inside the broad fact *is* dropped.
        let broad = result
            .facts_for(&Pred::new("q"))
            .iter()
            .find(|f| !f.is_ground())
            .expect("broad q fact stored");
        assert!(broad.subsumes(&Fact::ground("q", vec![Value::num(9)])));
    }

    #[test]
    fn arithmetic_heads_and_symbols_join() {
        let mut db = Database::new();
        db.add_facts_str("leg(madison, chicago, 50).\nleg(chicago, seattle, 60).")
            .unwrap();
        let result = naive(
            "trip(S, D, T) :- leg(S, D, T).\n\
             trip(S, D, T) :- trip(S, M, T1), leg(M, D, T2), T = T1 + T2.",
            &db,
        );
        assert!(result.termination.is_fixpoint());
        assert_eq!(result.count_for(&Pred::new("trip")), 3);
        let composed = result
            .facts_for(&Pred::new("trip"))
            .iter()
            .find(|f| {
                f.ground_values()
                    .is_some_and(|v| v[0] == Value::sym("madison") && v[1] == Value::sym("seattle"))
            })
            .cloned()
            .expect("composed trip exists");
        assert_eq!(composed.ground_values().unwrap()[2], Value::num(110));
    }

    #[test]
    fn divergence_is_caught_by_the_iteration_limit() {
        let db = Database::new();
        let program = parse_program("nat(0).\nnat(Y) :- nat(X), Y = X + 1.").unwrap();
        let result = evaluate(&program, &db, &EvalLimits::capped(5));
        assert_eq!(result.termination, Termination::IterationLimit);
        assert!(result.count_for(&Pred::new("nat")) >= 5);
    }
}
