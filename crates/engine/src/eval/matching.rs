//! Matching facts against literals: the register frame a derivation fills,
//! the slot program that fills it from ground facts, and the symbolic
//! residual a derivation falls back to once a constraint fact is involved.
//!
//! A [`Frame`] is one `Vec` of slot values per task with a bind/undo trail —
//! no clone per candidate, no variable names.  Over ground facts a match is
//! the step's [`ArgOp`]s (compare or bind a register) followed by its
//! scheduled [`AtomOp`]s (plain rational arithmetic), and a completed
//! derivation emits its head as a row of values.
//!
//! The symbolic machinery of Section 2 — a [`Conjunction`] over rule and
//! fresh join variables, substitution to a fixpoint, Fourier–Motzkin
//! satisfiability and projection — lives in the frame's *optional*
//! [`Residual`].  It comes into being only when a derivation needs it: when
//! a matched fact is a proper constraint fact, or when a derivation ends
//! with atoms no step could ground (a head variable the body never binds).
//! At that moment the atoms the slot program has not discharged yet move
//! into the residual, instantiated with the registers bound so far, and from
//! there on the derivation is matched symbolically: a position bound through
//! a constraint fact leaves its "statically bound" slot empty, and a later
//! ground match that fills it re-resolves whatever was waiting on it.

use std::collections::{BTreeMap, BTreeSet};

use pcs_telemetry as telemetry;

use pcs_constraints::{Atom, CmpOp, Conjunction, LinearExpr, Rational, Rel, Var};
use pcs_lang::{Literal, Symbol, Term};

use crate::fact::{Binding, Fact};
use crate::plan::{ArgOp, AtomOp, HeadOp, JoinPlan, PlanAtom, Slot, SlotExpr};
use crate::relation::FactRef;
use crate::value::Value;

/// What a completed derivation produced: a ground row of the head predicate
/// (the common case, Theorem 4.4), or a fact built symbolically.
pub(super) enum Derived {
    Row(Vec<Value>),
    Fact(Fact),
}

/// The symbolic part of a derivation: the conjunction over variables that
/// have no concrete value yet, the values resolution pinned fresh join
/// variables to, and the counter naming those variables.
#[derive(Clone)]
struct Residual {
    extra: Conjunction,
    /// Numeric bindings of join variables (rule variables live in slots).
    num: BTreeMap<Var, Rational>,
    /// Monotone fresh-variable counter for this derivation.  Carried through
    /// every extension so that each join variable minted along one
    /// derivation gets a distinct name, no matter how `extra`/`num` shrink
    /// or grow in between (a size-based scheme could collide and silently
    /// capture variables across facts).
    fresh: u64,
}

/// A point to [`Frame::undo`] back to.
pub(super) struct Mark {
    trail: usize,
    residual: Option<Box<Residual>>,
}

/// The registers of one task: a slot per rule variable (see
/// [`JoinPlan::slots`]), the trail of slots bound since the task began, and
/// the residual, if the current derivation has one.
pub(super) struct Frame {
    slots: Vec<Option<Value>>,
    trail: Vec<Slot>,
    residual: Option<Box<Residual>>,
}

impl Frame {
    /// An empty frame for `plan`.
    pub(super) fn new(plan: &JoinPlan) -> Self {
        Frame {
            slots: vec![None; plan.slots.len()],
            trail: Vec::with_capacity(plan.slots.len()),
            residual: None,
        }
    }

    pub(super) fn mark(&self) -> Mark {
        Mark {
            trail: self.trail.len(),
            residual: self.residual.clone(),
        }
    }

    /// Unbinds every slot bound since `mark` and restores its residual.
    pub(super) fn undo(&mut self, mark: Mark) {
        for slot in self.trail.drain(mark.trail..) {
            self.slots[slot] = None;
        }
        self.residual = mark.residual;
    }

    fn bind(&mut self, slot: Slot, value: Value) {
        self.slots[slot] = Some(value);
        self.trail.push(slot);
    }

    fn num(&self, slot: Slot) -> Option<Rational> {
        self.slots[slot].as_ref()?.as_num()
    }

    /// `expr` under the current registers; `None` if a slot is empty or
    /// holds a symbol.
    fn eval(&self, expr: &SlotExpr) -> Option<Rational> {
        let mut acc = expr.constant;
        for &(slot, coeff) in &expr.terms {
            acc += coeff * self.num(slot)?;
        }
        Some(acc)
    }

    /// The concrete value an argument holds under the current registers, if
    /// they determine one: what a step probes the index with, and what its
    /// existence shortcut requires of every argument.  A variable bound only
    /// through a matched constraint-fact interval does *not* resolve.
    pub(super) fn key(&self, op: &ArgOp) -> Option<Value> {
        match op {
            ArgOp::Const(value) => Some(value.clone()),
            ArgOp::Check(slot) | ArgOp::Bind { slot, .. } => self.slots[*slot].clone(),
            ArgOp::Expr { expr, .. } => self.eval(expr).map(Value::num),
        }
    }

    /// Runs the plan's entry stage: matches the seed literal against `seed`
    /// (both present for pinned and over-deletion plans, both absent
    /// otherwise) and resolves the atoms ground up front.
    pub(super) fn enter(&mut self, plan: &JoinPlan, seed: Option<(&Literal, FactRef<'_>)>) -> bool {
        match seed {
            Some((literal, fact)) => self.match_literal(plan, 0, literal, fact),
            None => self.run_atoms(plan.stage(0).1),
        }
    }

    /// Attempts to extend the derivation with one fact for `literal`, the
    /// literal of stage `stage` of `plan`.  On failure the frame is left
    /// dirty: the caller undoes to its mark either way.
    ///
    /// Ground facts run the stage's slot program; the first proper
    /// constraint fact a derivation meets moves it to the symbolic path.
    pub(super) fn match_literal(
        &mut self,
        plan: &JoinPlan,
        stage: usize,
        literal: &Literal,
        fact: FactRef<'_>,
    ) -> bool {
        if self.residual.is_none() {
            let (args, atoms) = plan.stage(stage);
            match fact {
                FactRef::Ground { row, .. } => return self.match_ground(args, atoms, row.iter()),
                FactRef::Stored(fact) if fact.is_ground() => {
                    let values = fact.bindings().iter().map(|b| match b {
                        Binding::Bound(value) => value,
                        Binding::Free => unreachable!("ground facts have no free position"),
                    });
                    return self.match_ground(args, atoms, values);
                }
                FactRef::Stored(_) => self.start_residual(plan, stage),
            }
        }
        self.match_symbolic(plan, literal, fact)
    }

    /// The slot program of one stage over a ground fact.
    fn match_ground<'v>(
        &mut self,
        args: &[ArgOp],
        atoms: &[AtomOp],
        values: impl ExactSizeIterator<Item = &'v Value>,
    ) -> bool {
        if values.len() != args.len() {
            return false;
        }
        for (op, value) in args.iter().zip(values) {
            let (slot, numeric) = match op {
                ArgOp::Const(constant) if constant == value => continue,
                ArgOp::Check(slot) if self.slots[*slot].as_ref() == Some(value) => continue,
                ArgOp::Const(_) | ArgOp::Check(_) => return false,
                ArgOp::Bind { slot, numeric } => (*slot, *numeric),
                ArgOp::Expr { column, .. } => (*column, true),
            };
            if numeric && value.as_sym().is_some() {
                return false;
            }
            self.bind(slot, value.clone());
        }
        self.run_atoms(atoms)
    }

    /// Evaluates the atoms scheduled at a stage; `false` if one fails.
    fn run_atoms(&mut self, atoms: &[AtomOp]) -> bool {
        for op in atoms {
            match op {
                AtomOp::Check { expr, rel, .. } => {
                    let holds = self.eval(expr).is_some_and(|value| match rel {
                        Rel::Le => !value.is_positive(),
                        Rel::Lt => value.is_negative(),
                        Rel::Eq => value.is_zero(),
                    });
                    if !holds {
                        return false;
                    }
                }
                AtomOp::Define { slot, value, .. } => match self.eval(value) {
                    Some(value) => self.bind(*slot, Value::num(value)),
                    None => return false,
                },
            }
        }
        true
    }

    /// Emits the head of a completed derivation: the row the compiled head
    /// computes when the derivation stayed ground, else the fact the
    /// residual projects to — if the residual is satisfiable.
    pub(super) fn finish(&mut self, plan: &JoinPlan, head: &Literal) -> Option<Derived> {
        if self.residual.is_none() && plan.ground_finish {
            return plan
                .head
                .iter()
                .map(|op| match op {
                    HeadOp::Const(value) => Some(value.clone()),
                    HeadOp::Slot(slot) => self.slots[*slot].clone(),
                    HeadOp::Expr(expr) => self.eval(expr).map(Value::num),
                })
                .collect::<Option<Vec<Value>>>()
                .map(Derived::Row);
        }
        if !self.is_consistent(plan) {
            return None;
        }
        self.build_head_fact(plan, head).map(Derived::Fact)
    }

    /// Whether the derivation's residual constraints are satisfiable — the
    /// one Fourier–Motzkin satisfiability call site.  A derivation that
    /// stayed ground with every atom discharged has nothing left to decide.
    pub(super) fn is_consistent(&mut self, plan: &JoinPlan) -> bool {
        if self.residual.is_none() {
            if plan.ground_finish {
                return true;
            }
            self.start_residual(plan, plan.steps.len() + 1);
        }
        telemetry::bump(telemetry::Counter::FmSatCalls);
        self.residual
            .as_ref()
            .is_some_and(|residual| residual.extra.is_satisfiable())
    }

    // ---- the symbolic path -------------------------------------------

    /// Begins the symbolic part of a derivation that has run every stage
    /// before `stage` on ground facts: the atoms not yet discharged become
    /// the residual conjunction, instantiated with the registers bound so
    /// far, in the order a rule body lists them (the rule's own atoms, then
    /// the equalities of expression arguments already matched).
    fn start_residual(&mut self, plan: &JoinPlan, stage: usize) {
        let mut extra = Conjunction::truth();
        let pending = |atom: &&PlanAtom| {
            atom.due.map_or(true, |due| due >= stage)
                && atom.origin.map_or(true, |origin| origin < stage)
        };
        for atom in plan.atoms.iter().filter(pending) {
            let mut expr = LinearExpr::constant(atom.expr.constant);
            for &(slot, coeff) in &atom.expr.terms {
                match self.num(slot) {
                    Some(value) => expr.add_constant(coeff * value),
                    None => expr.add_term(coeff, plan.slots[slot].clone()),
                }
            }
            extra.push(Atom::new(expr, atom.rel));
        }
        self.residual = Some(Box::new(Residual {
            extra,
            num: BTreeMap::new(),
            fresh: 0,
        }));
    }

    fn residual(&mut self) -> &mut Residual {
        self.residual
            .as_mut()
            .expect("the symbolic path has a residual")
    }

    /// Mints a join variable for argument position `position` (1-based) of
    /// the fact currently being matched.
    fn fresh_var(&mut self, position: usize) -> Var {
        let residual = self.residual();
        residual.fresh += 1;
        Var::new(format!("_j{}p{}", residual.fresh, position))
    }

    /// The symbol a rule variable is bound to, if any.
    fn sym_of(&self, plan: &JoinPlan, var: &Var) -> Option<Symbol> {
        let slot = plan.slot_of(var)?;
        self.slots[slot].as_ref()?.as_sym().copied()
    }

    /// The number a rule or join variable is bound to, if any.
    fn num_of(&self, plan: &JoinPlan, var: &Var) -> Option<Rational> {
        match plan.slot_of(var) {
            Some(slot) => self.num(slot),
            None => self.residual.as_ref()?.num.get(var).copied(),
        }
    }

    fn bind_sym(&mut self, plan: &JoinPlan, var: &Var, sym: Symbol) -> bool {
        let slot = plan.slot_of(var).expect("literal variables have slots");
        if let Some(existing) = &self.slots[slot] {
            return existing.as_sym() == Some(&sym);
        }
        // A variable already used in arithmetic cannot name a symbol.
        let free = !self.residual().extra.contains_var(var);
        if free {
            self.bind(slot, Value::Sym(sym));
        }
        free
    }

    fn bind_num(&mut self, plan: &JoinPlan, var: &Var, value: Rational) -> bool {
        let Some(slot) = plan.slot_of(var) else {
            let existing = *self.residual().num.entry(var.clone()).or_insert(value);
            return existing == value;
        };
        match &self.slots[slot] {
            Some(existing) => existing.as_num() == Some(value),
            None => {
                self.bind(slot, Value::num(value));
                true
            }
        }
    }

    fn add_atom(&mut self, plan: &JoinPlan, atom: Atom) -> bool {
        if atom.vars().any(|v| self.sym_of(plan, v).is_some()) {
            return false;
        }
        self.residual().extra.push(atom);
        true
    }

    /// Substitutes known numeric bindings into the residual conjunction,
    /// evaluates atoms that became ground, and extracts newly pinned
    /// variables — into their slots, so later steps probe and compare with
    /// them.  Returns `false` if a ground atom evaluates to false.
    fn resolve(&mut self, plan: &JoinPlan) -> bool {
        loop {
            let mut rewritten = Conjunction::truth();
            let mut new_bindings: Vec<(Var, Rational)> = Vec::new();
            let extra = std::mem::take(&mut self.residual().extra);
            for atom in extra.atoms() {
                let mut current = atom.clone();
                for v in atom.vars() {
                    if let Some(value) = self.num_of(plan, v) {
                        current = current.substitute(v, &LinearExpr::constant(value));
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
            self.residual().extra = rewritten;
            if new_bindings.is_empty() {
                return true;
            }
            for (var, value) in new_bindings {
                if !self.bind_num(plan, &var, value) {
                    return false;
                }
            }
        }
    }

    /// The one place a literal argument meets the concrete value a fact
    /// holds there, symbolically: constants must agree with it, a variable
    /// is bound to it, and an arithmetic expression is equated with it (a
    /// symbol never satisfies arithmetic).
    fn match_bound(&mut self, plan: &JoinPlan, term: &Term, value: &Value) -> bool {
        match value.as_num() {
            None => {
                let sym = value.as_sym().expect("non-numeric value is a symbol");
                match term {
                    Term::Sym(s) => s == sym,
                    Term::Var(x) => self.bind_sym(plan, x, *sym),
                    Term::Num(_) | Term::Expr(_) => false,
                }
            }
            Some(n) => match term {
                Term::Sym(_) => false,
                Term::Num(k) => *k == n,
                Term::Var(x) => self.bind_num(plan, x, n),
                Term::Expr(e) => self.add_atom(
                    plan,
                    Atom::compare(e.clone(), CmpOp::Eq, LinearExpr::constant(n)),
                ),
            },
        }
    }

    /// The general path of [`Self::match_literal`]: any fact, against a
    /// derivation that already has a residual.
    fn match_symbolic(&mut self, plan: &JoinPlan, literal: &Literal, fact: FactRef<'_>) -> bool {
        if fact.arity() != literal.arity() {
            return false;
        }
        let matched = match fact {
            FactRef::Ground { row, .. } => literal
                .args
                .iter()
                .zip(row)
                .all(|(term, value)| self.match_bound(plan, term, value)),
            FactRef::Stored(fact) => self.match_stored_fact(plan, literal, fact),
        };
        // Propagate the new bindings into the residual right away: an atom
        // that just became trivially false prunes the derivation *before*
        // the join enumerates candidates for the next body literal.
        matched && self.resolve(plan)
    }

    fn match_stored_fact(&mut self, plan: &JoinPlan, literal: &Literal, fact: &Fact) -> bool {
        // Rename the fact's free-position constraint onto fresh variables so
        // that multiple facts of the same predicate do not collide.
        let mut position_vars: Vec<Option<Var>> = vec![None; fact.arity()];
        if !fact.is_ground() {
            for (i, binding) in fact.bindings().iter().enumerate() {
                if matches!(binding, Binding::Free) {
                    position_vars[i] = Some(self.fresh_var(i + 1));
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
                if !self.add_atom(plan, atom.clone()) {
                    return false;
                }
            }
        }
        for (i, (term, binding)) in literal.args.iter().zip(fact.bindings()).enumerate() {
            let matched = match binding {
                Binding::Bound(value) => self.match_bound(plan, term, value),
                Binding::Free => {
                    let fresh = position_vars[i]
                        .clone()
                        .expect("free positions have fresh variables");
                    match term {
                        Term::Sym(_) => false,
                        Term::Num(n) => self.add_atom(plan, Atom::var_eq(fresh, *n)),
                        Term::Var(x) => self.add_atom(plan, Atom::vars_eq(x.clone(), fresh)),
                        Term::Expr(e) => self.add_atom(
                            plan,
                            Atom::compare(e.clone(), CmpOp::Eq, LinearExpr::var(fresh)),
                        ),
                    }
                }
            };
            if !matched {
                return false;
            }
        }
        true
    }

    /// Builds the head fact of a completed symbolic derivation.
    fn build_head_fact(&mut self, plan: &JoinPlan, head: &Literal) -> Option<Fact> {
        let mut bindings: Vec<Binding> = Vec::with_capacity(head.arity());
        let mut constraint = self.residual().extra.clone();
        for (i, term) in head.args.iter().enumerate() {
            let position = Var::position(i + 1);
            match term {
                Term::Sym(s) => bindings.push(Binding::Bound(Value::Sym(*s))),
                Term::Num(n) => bindings.push(Binding::Bound(Value::num(*n))),
                Term::Var(x) => {
                    let slot = plan.slot_of(x).expect("head variables have slots");
                    if let Some(value) = &self.slots[slot] {
                        bindings.push(Binding::Bound(value.clone()));
                    } else {
                        bindings.push(Binding::Free);
                        constraint.push(Atom::vars_eq(position, x.clone()));
                    }
                }
                Term::Expr(e) => {
                    let mut expr = e.clone();
                    for v in e.vars() {
                        if let Some(value) = self.num_of(plan, v) {
                            expr = expr.substitute(v, &LinearExpr::constant(value));
                        } else if self.sym_of(plan, v).is_some() {
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
        let keep: BTreeSet<Var> = (1..=head.arity()).map(Var::position).collect();
        let projected = constraint.project(&keep);
        Fact::new(head.predicate.clone(), bindings, projected)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::eval;
    use super::Frame;
    use crate::database::Database;
    use crate::plan::{compile_plans, SelectivityHints};
    use crate::relation::FactRef;
    use crate::value::Value;
    use pcs_constraints::{Atom, Var};
    use pcs_lang::{parse_program, Pred};

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

    #[test]
    fn a_symbol_fails_a_numeric_only_slot_at_the_step_that_binds_it() {
        // X occurs in arithmetic in the first rule only: there `a(madison)`
        // is rejected by the step that would bind X — before `b` is ever
        // probed — while the second rule binds the symbol and joins on it.
        let program = parse_program(
            "q(X) :- a(X), b(X), X <= 3.\n\
             r(X) :- a(X), b(X).",
        )
        .unwrap()
        .flattened();
        let plans = compile_plans(&program, &SelectivityHints::new());
        let a = Pred::new("a");
        let matches = |rule: usize, value: Value| {
            let plan = plans.plan(rule, 0).unwrap();
            let literal = &program.rules()[rule].body[0];
            let fact = FactRef::Ground {
                predicate: &a,
                row: &[value],
            };
            Frame::new(plan).match_literal(plan, 1, literal, fact)
        };
        assert!(!matches(0, Value::sym("madison")));
        assert!(matches(0, Value::num(2)));
        assert!(!matches(0, Value::num(4)), "X <= 3 is checked right there");
        assert!(matches(1, Value::sym("madison")));
    }

    #[test]
    fn ground_matches_leave_no_residual_and_undo_restores_the_frame() {
        let program = parse_program("q(X, Z) :- a(X, Y), Z = X + Y, Z <= 10.")
            .unwrap()
            .flattened();
        let plans = compile_plans(&program, &SelectivityHints::new());
        let plan = plans.plan(0, 0).unwrap();
        let rule = &program.rules()[0];
        let a = Pred::new("a");
        let mut frame = Frame::new(plan);
        let mark = frame.mark();
        let row = [Value::num(3), Value::num(4)];
        let fact = FactRef::Ground {
            predicate: &a,
            row: &row,
        };
        assert!(frame.match_literal(plan, 1, &rule.body[0], fact));
        assert!(frame.residual.is_none());
        let z = plan.slot_of(&Var::new("Z")).unwrap();
        assert_eq!(frame.slots[z], Some(Value::num(7)), "Z := X + Y");
        frame.undo(mark);
        assert!(frame.slots.iter().all(Option::is_none) && frame.trail.is_empty());
        // 6 + 5 violates Z <= 10: the match fails on plain arithmetic.
        let row = [Value::num(6), Value::num(5)];
        let fact = FactRef::Ground {
            predicate: &a,
            row: &row,
        };
        assert!(!frame.match_literal(plan, 1, &rule.body[0], fact));
    }
}
