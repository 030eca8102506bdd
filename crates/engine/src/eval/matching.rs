//! Matching facts against body literals: the partial match a derivation
//! accumulates, and the head fact a completed one builds.

use std::collections::BTreeMap;

use pcs_telemetry as telemetry;

use pcs_constraints::{Atom, CmpOp, Conjunction, LinearExpr, Rational, Var};
use pcs_lang::{Literal, Rule, Symbol, Term};

use crate::fact::{Binding, Fact};
use crate::relation::FactRef;
use crate::value::Value;

/// A partially constructed derivation: symbolic bindings, ground numeric
/// bindings, a residual conjunction over not-yet-ground variables, and a
/// monotone counter for naming join variables.
#[derive(Clone)]
pub(super) struct PartialMatch {
    sym: BTreeMap<Var, Symbol>,
    num: BTreeMap<Var, Rational>,
    extra: Conjunction,
    /// Monotone fresh-variable counter for this derivation.  Carried through
    /// clones so that every join variable minted while extending the same
    /// derivation gets a distinct name, no matter how `extra`/`num` shrink or
    /// grow in between (a previous size-based scheme could collide and
    /// silently capture variables across facts).
    fresh: u64,
}

impl PartialMatch {
    /// The empty match a rule body — or a query, which is a rule body
    /// without a head — starts from: nothing bound, `constraint` residual.
    pub(super) fn start(constraint: &Conjunction) -> Self {
        PartialMatch {
            sym: BTreeMap::new(),
            num: BTreeMap::new(),
            extra: constraint.clone(),
            fresh: 0,
        }
    }

    /// Mints a join variable for argument position `position` (1-based) of
    /// the fact currently being matched.
    fn fresh_var(&mut self, position: usize) -> Var {
        self.fresh += 1;
        Var::new(format!("_j{}p{}", self.fresh, position))
    }

    fn bind_sym(&mut self, var: &Var, sym: &Symbol) -> bool {
        if self.num.contains_key(var) || self.extra.contains_var(var) {
            return false;
        }
        match self.sym.get(var) {
            Some(existing) => existing == sym,
            None => {
                self.sym.insert(var.clone(), *sym);
                true
            }
        }
    }

    fn bind_num(&mut self, var: &Var, value: Rational) -> bool {
        if self.sym.contains_key(var) {
            return false;
        }
        match self.num.get(var) {
            Some(existing) => *existing == value,
            None => {
                self.num.insert(var.clone(), value);
                true
            }
        }
    }

    fn add_atom(&mut self, atom: Atom) -> bool {
        if atom.vars().any(|v| self.sym.contains_key(v)) {
            return false;
        }
        self.extra.push(atom);
        true
    }

    /// Substitutes known numeric bindings into the residual conjunction,
    /// evaluates atoms that became ground, and extracts newly pinned
    /// variables.  Returns `false` if a ground atom evaluates to false.
    pub(super) fn resolve(&mut self) -> bool {
        loop {
            let mut rewritten = Conjunction::truth();
            let mut new_bindings: Vec<(Var, Rational)> = Vec::new();
            for atom in self.extra.atoms() {
                let mut current = atom.clone();
                for v in atom.vars() {
                    if let Some(value) = self.num.get(v) {
                        current = current.substitute(v, &LinearExpr::constant(*value));
                    }
                }
                if current.is_trivially_false() {
                    return false;
                }
                if current.is_trivially_true() {
                    continue;
                }
                if let Some((var, value)) = current.as_ground_binding() {
                    new_bindings.push((var, value));
                    continue;
                }
                rewritten.push(current);
            }
            self.extra = rewritten;
            if new_bindings.is_empty() {
                return true;
            }
            for (var, value) in new_bindings {
                if !self.bind_num(&var, value) {
                    return false;
                }
            }
        }
    }

    /// Final satisfiability check over the residual (non-ground) constraints.
    pub(super) fn is_consistent(&self) -> bool {
        telemetry::bump(telemetry::Counter::FmSatCalls);
        self.extra.is_satisfiable()
    }
}

/// The concrete [`Value`] a term resolves to under a partial match, if the
/// match determines one: constants resolve to themselves, variables through
/// the match's bindings, and linear expressions when every variable has a
/// numeric binding.  A variable bound only through a matched constraint-fact
/// interval (not to a concrete value) does *not* resolve.
pub(super) fn term_value(pm: &PartialMatch, term: &Term) -> Option<Value> {
    match term {
        Term::Sym(s) => Some(Value::Sym(*s)),
        Term::Num(n) => Some(Value::num(*n)),
        Term::Var(x) => pm
            .sym
            .get(x)
            .map(|s| Value::Sym(*s))
            .or_else(|| pm.num.get(x).map(|n| Value::num(*n))),
        Term::Expr(e) => {
            let mut expr = e.clone();
            for v in e.vars() {
                if let Some(value) = pm.num.get(v) {
                    expr = expr.substitute(v, &LinearExpr::constant(*value));
                }
            }
            expr.is_constant().then(|| Value::num(expr.constant_part()))
        }
    }
}

/// Completes a derivation: checks consistency, builds the head fact, and
/// records it.
pub(super) fn finish_derivation(rule: &Rule, mut pm: PartialMatch, derived: &mut Vec<Fact>) {
    if !pm.resolve() || !pm.is_consistent() {
        return;
    }
    if let Some(fact) = build_head_fact(&rule.head, &pm) {
        derived.push(fact);
    }
}

/// Attempts to extend a partial match with one fact for `literal`.
///
/// Columnar ground rows take a dedicated fast path: no free positions means
/// no fresh-variable allocation and no constraint renaming, just value
/// matching against the literal's arguments.
pub(super) fn match_literal(
    pm: &PartialMatch,
    literal: &Literal,
    fact: FactRef<'_>,
) -> Option<PartialMatch> {
    match fact {
        FactRef::Ground { row, .. } => match_ground_row(pm, literal, row),
        FactRef::Stored(fact) => match_stored_fact(pm, literal, fact),
    }
}

/// The one place a literal argument meets the concrete value a fact holds
/// there: constants must agree with it, a variable is bound to it, and an
/// arithmetic expression is equated with it (a symbol never satisfies
/// arithmetic).
fn match_bound(pm: &mut PartialMatch, term: &Term, value: &Value) -> bool {
    match value.as_num() {
        None => {
            let sym = value.as_sym().expect("non-numeric value is a symbol");
            match term {
                Term::Sym(s) => s == sym,
                Term::Var(x) => pm.bind_sym(x, sym),
                Term::Num(_) | Term::Expr(_) => false,
            }
        }
        Some(n) => match term {
            Term::Sym(_) => false,
            Term::Num(k) => *k == n,
            Term::Var(x) => pm.bind_num(x, n),
            Term::Expr(e) => {
                pm.add_atom(Atom::compare(e.clone(), CmpOp::Eq, LinearExpr::constant(n)))
            }
        },
    }
}

/// The ground fast path of [`match_literal`]: every position holds a value.
fn match_ground_row(pm: &PartialMatch, literal: &Literal, row: &[Value]) -> Option<PartialMatch> {
    if row.len() != literal.arity() {
        return None;
    }
    let mut pm = pm.clone();
    for (term, value) in literal.args.iter().zip(row) {
        if !match_bound(&mut pm, term, value) {
            return None;
        }
    }
    // Propagate the new bindings into the residual constraint right away,
    // exactly as the stored-fact path does: an atom that just became
    // trivially false prunes the partial match *before* the join enumerates
    // candidates for the next body literal.
    pm.resolve().then_some(pm)
}

/// The general path of [`match_literal`] for facts stored in full.
fn match_stored_fact(pm: &PartialMatch, literal: &Literal, fact: &Fact) -> Option<PartialMatch> {
    if fact.arity() != literal.arity() {
        return None;
    }
    let mut pm = pm.clone();
    // Rename the fact's free-position constraint onto fresh variables so that
    // multiple facts of the same predicate do not collide.
    let mut position_vars: Vec<Option<Var>> = vec![None; fact.arity()];
    if !fact.constraint().is_trivially_true()
        || fact.bindings().iter().any(|b| matches!(b, Binding::Free))
    {
        for (i, binding) in fact.bindings().iter().enumerate() {
            if matches!(binding, Binding::Free) {
                position_vars[i] = Some(pm.fresh_var(i + 1));
            }
        }
        let renamed = fact.constraint().rename(&|v: &Var| {
            if let Some(idx) = v.position_index() {
                if let Some(Some(fresh)) = position_vars.get(idx - 1) {
                    return fresh.clone();
                }
            }
            v.clone()
        });
        for atom in renamed.atoms() {
            if !pm.add_atom(atom.clone()) {
                return None;
            }
        }
    }

    for (i, (term, binding)) in literal.args.iter().zip(fact.bindings()).enumerate() {
        let matched = match binding {
            Binding::Bound(value) => match_bound(&mut pm, term, value),
            Binding::Free => {
                let fresh = position_vars[i]
                    .clone()
                    .expect("free positions have fresh variables");
                match term {
                    Term::Sym(_) => false,
                    Term::Num(n) => pm.add_atom(Atom::var_eq(fresh, *n)),
                    Term::Var(x) => {
                        !pm.sym.contains_key(x)
                            && pm.add_atom(Atom::compare(
                                LinearExpr::var(x.clone()),
                                CmpOp::Eq,
                                LinearExpr::var(fresh),
                            ))
                    }
                    Term::Expr(e) => {
                        pm.add_atom(Atom::compare(e.clone(), CmpOp::Eq, LinearExpr::var(fresh)))
                    }
                }
            }
        };
        if !matched {
            return None;
        }
    }
    pm.resolve().then_some(pm)
}

/// Builds the head fact of a completed derivation.
fn build_head_fact(head: &Literal, pm: &PartialMatch) -> Option<Fact> {
    let mut bindings: Vec<Binding> = Vec::with_capacity(head.arity());
    let mut constraint = pm.extra.clone();
    for (i, term) in head.args.iter().enumerate() {
        let position = Var::position(i + 1);
        match term {
            Term::Sym(s) => bindings.push(Binding::Bound(Value::Sym(*s))),
            Term::Num(n) => bindings.push(Binding::Bound(Value::num(*n))),
            Term::Var(x) => {
                if let Some(sym) = pm.sym.get(x) {
                    bindings.push(Binding::Bound(Value::Sym(*sym)));
                } else if let Some(value) = pm.num.get(x) {
                    bindings.push(Binding::Bound(Value::num(*value)));
                } else {
                    bindings.push(Binding::Free);
                    constraint.push(Atom::compare(
                        LinearExpr::var(position),
                        CmpOp::Eq,
                        LinearExpr::var(x.clone()),
                    ));
                }
            }
            Term::Expr(e) => {
                let mut expr = e.clone();
                for v in e.vars() {
                    if let Some(value) = pm.num.get(v) {
                        expr = expr.substitute(v, &LinearExpr::constant(*value));
                    } else if pm.sym.contains_key(v) {
                        return None;
                    }
                }
                if expr.is_constant() {
                    bindings.push(Binding::Bound(Value::num(expr.constant_part())));
                } else {
                    bindings.push(Binding::Free);
                    constraint.push(Atom::compare(LinearExpr::var(position), CmpOp::Eq, expr));
                }
            }
        }
    }
    let keep: std::collections::BTreeSet<Var> = (1..=head.arity()).map(Var::position).collect();
    let projected = constraint.project(&keep);
    Fact::new(head.predicate.clone(), bindings, projected)
}

#[cfg(test)]
mod tests {
    use super::super::test_support::eval;
    use crate::database::Database;
    use pcs_constraints::{Atom, Var};
    use pcs_lang::Pred;

    #[test]
    fn join_variables_do_not_collide_across_facts() {
        // Regression for the size-based fresh-variable scheme: matching the
        // `a` fact mints a join variable at `extra.len() + num.len() = 3`
        // (the three Y bounds), and resolving Y = 5 then drops those three
        // bounds while adding one numeric binding — so the `b` fact's join
        // variable was *also* named `_j3p1`, silently forcing X = Z.
        let db = Database::new();
        let source = "a(X, 5) :- X >= 0.\n\
                      b(Z) :- Z <= 2.\n\
                      q(X, Z) :- a(X, Y), b(Z), Y <= 7, Y <= 8, Y <= 9.";
        let result = eval(source, &db);
        assert_eq!(result.count_for(&Pred::new("q")), 1);
        let q = &result.facts_for(&Pred::new("q"))[0];
        assert!(q
            .constraint()
            .implies_atom(&Atom::var_ge(Var::position(1), 0)));
        assert!(q
            .constraint()
            .implies_atom(&Atom::var_le(Var::position(2), 2)));
        // Under the collision, $1 inherited the b fact's upper bound.
        assert!(!q
            .constraint()
            .implies_atom(&Atom::var_le(Var::position(1), 2)));
    }
}
