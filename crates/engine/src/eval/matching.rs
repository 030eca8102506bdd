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
use crate::plan::{ArgOp, AtomOp, CopyMask, HeadOp, JoinPlan, PlanAtom, PlanCopy, Slot, SlotExpr};
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
    live: CopyMask,
}

/// The registers of one task: a slot per rule variable (see
/// [`JoinPlan::slots`]), the trail of slots bound since the task began, the
/// copies the current derivation is still live for, and its residual, if
/// it has one.
pub(super) struct Frame {
    slots: Vec<Option<Value>>,
    trail: Vec<Slot>,
    residual: Option<Box<Residual>>,
    live: CopyMask,
}

/// A value of slot arithmetic: an integer while every operand was one, else
/// the exact rational.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Number {
    Int(i128),
    Rational(Rational),
}

impl Number {
    /// Whether `self rel 0` holds.
    fn satisfies(self, rel: Rel) -> bool {
        match self {
            Number::Int(value) => match rel {
                Rel::Le => value <= 0,
                Rel::Lt => value < 0,
                Rel::Eq => value == 0,
            },
            Number::Rational(value) => match rel {
                Rel::Le => !value.is_positive(),
                Rel::Lt => value.is_negative(),
                Rel::Eq => value.is_zero(),
            },
        }
    }

    /// The normalized value: exactly what [`Value::num`] makes of the
    /// rational.
    fn into_value(self) -> Value {
        match self {
            Number::Int(value) => match i64::try_from(value) {
                Ok(small) => Value::Int(small),
                Err(_) => Value::num(Rational::from_int(value)),
            },
            Number::Rational(value) => Value::num(value),
        }
    }
}

/// The copies in `mask`, lowest first.
pub(super) fn copies_in(mut mask: CopyMask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let copy = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            copy
        })
    })
}

impl Frame {
    /// An empty frame for `plan`, live for every copy.
    pub(super) fn new(plan: &JoinPlan) -> Self {
        Frame {
            slots: vec![None; plan.slots.len()],
            trail: Vec::with_capacity(plan.slots.len()),
            residual: None,
            live: plan.all_copies(),
        }
    }

    pub(super) fn mark(&self) -> Mark {
        Mark {
            trail: self.trail.len(),
            residual: self.residual.clone(),
            live: self.live,
        }
    }

    /// Unbinds every slot bound since `mark` and restores its residual and
    /// live copies.
    pub(super) fn undo(&mut self, mark: Mark) {
        for slot in self.trail.drain(mark.trail..) {
            self.slots[slot] = None;
        }
        self.residual = mark.residual;
        self.live = mark.live;
    }

    /// The copies the derivation is still live for.
    pub(super) fn live(&self) -> CopyMask {
        self.live
    }

    /// Continues the derivation for `copy` alone (undo restores the rest).
    pub(super) fn restrict(&mut self, copy: usize) {
        debug_assert!(self.live >> copy & 1 == 1, "only a live copy continues");
        self.live = 1 << copy;
    }

    /// Whether matching `fact` would start a residual while several copies
    /// are live: the executor must then match it once per live copy.
    pub(super) fn must_split(&self, fact: FactRef<'_>) -> bool {
        self.residual.is_none() && self.live.count_ones() > 1 && !fact.is_ground()
    }

    /// Whether the derivation has stayed on the ground path.
    pub(super) fn is_ground(&self) -> bool {
        self.residual.is_none()
    }

    /// The one copy a derivation with a residual derives for.
    fn copy<'p>(&self, plan: &'p JoinPlan) -> &'p PlanCopy {
        debug_assert_eq!(
            self.live.count_ones(),
            1,
            "one copy at a time leaves the ground path"
        );
        &plan.copies[self.live.trailing_zeros() as usize]
    }

    fn bind(&mut self, slot: Slot, value: Value) {
        self.slots[slot] = Some(value);
        self.trail.push(slot);
    }

    fn num(&self, slot: Slot) -> Option<Rational> {
        self.slots[slot].as_ref()?.as_num()
    }

    /// `expr` under the current registers; `None` if a slot is empty or
    /// holds a symbol.  Integer coefficients over `Value::Int` slots sum in
    /// checked `i128` ([`Self::eval_int`]); anything else — a non-integer
    /// coefficient, a `Value::Num` slot, an overflow — evaluates the whole
    /// expression over [`Rational`]s, with the same result.
    fn eval(&self, expr: &SlotExpr) -> Option<Number> {
        if let Some(sum) = self.eval_int(expr) {
            return sum.map(Number::Int);
        }
        let mut acc = expr.constant;
        for &(slot, coeff) in &expr.terms {
            acc += coeff * self.num(slot)?;
        }
        Some(Number::Rational(acc))
    }

    /// [`Self::eval`] without a panic: `None` where the arithmetic
    /// overflows, else what `eval` returns.
    fn try_eval(&self, expr: &SlotExpr) -> Option<Option<Number>> {
        if let Some(sum) = self.eval_int(expr) {
            return Some(sum.map(Number::Int));
        }
        let mut acc = expr.constant;
        for &(slot, coeff) in &expr.terms {
            let Some(value) = self.num(slot) else {
                return Some(None);
            };
            acc = acc.checked_add(&coeff.checked_mul(&value)?)?;
        }
        Some(Some(Number::Rational(acc)))
    }

    /// The integer path of [`Self::eval`]: `Some(None)` where a slot is empty
    /// or holds a symbol, `None` — evaluate over rationals — at the first
    /// term it cannot take, so that the rational path meets every term in
    /// the same order and fails (or overflows) exactly as it always did.
    fn eval_int(&self, expr: &SlotExpr) -> Option<Option<i128>> {
        if !expr.constant.is_integer() {
            return None;
        }
        let mut sum = expr.constant.numer();
        for &(slot, coeff) in &expr.terms {
            let value = match &self.slots[slot] {
                Some(Value::Int(value)) if coeff.is_integer() => i128::from(*value),
                None | Some(Value::Sym(_)) => return Some(None),
                Some(Value::Int(_) | Value::Num(_)) => return None,
            };
            sum = sum.checked_add(coeff.numer().checked_mul(value)?)?;
        }
        Some(Some(sum))
    }

    /// The concrete value an argument holds under the current registers, if
    /// they determine one: what a step probes the index with, and what its
    /// existence shortcut requires of every argument.  A variable bound only
    /// through a matched constraint-fact interval does *not* resolve.
    pub(super) fn key(&self, op: &ArgOp) -> Option<Value> {
        match op {
            ArgOp::Const(value) => Some(value.clone()),
            ArgOp::Check(slot) | ArgOp::Bind { slot, .. } => self.slots[*slot].clone(),
            ArgOp::Expr { expr, .. } => self.eval(expr).map(Number::into_value),
        }
    }

    /// Runs the entry stage of a plan without a seed fact: resolves the
    /// atoms ground up front.  (A seed fact is matched like any literal, by
    /// [`Self::match_literal`] at stage 0.)
    pub(super) fn enter(&mut self, plan: &JoinPlan) -> bool {
        self.run_atoms(plan.stage(0).1)
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
                FactRef::Stored(_) => {
                    if !self.start_residual(plan, stage) {
                        return false;
                    }
                }
            }
        }
        self.match_symbolic(plan, literal, fact)
    }

    /// Whether the ground fact `values` passes the one-literal plan of an
    /// admission check ([`crate::plan::Admission`]): its entry stage, then
    /// its step.  Never panics: an atom whose arithmetic overflows admits
    /// the fact, and leaves the overflow to the join that reads it.
    pub(super) fn admits<'v>(
        &mut self,
        plan: &JoinPlan,
        values: impl ExactSizeIterator<Item = &'v Value>,
    ) -> bool {
        let mark = self.mark();
        let (args, atoms) = plan.stage(1);
        let admitted = match self.try_run_atoms(plan.stage(0).1) {
            Some(true) => self.match_args(args, values) && self.try_run_atoms(atoms) != Some(false),
            outcome => outcome.is_none(),
        };
        self.undo(mark);
        admitted
    }

    /// [`Self::run_atoms`] for a single-copy plan, without a panic: `None`
    /// where an atom's arithmetic overflows.
    fn try_run_atoms(&mut self, atoms: &[AtomOp]) -> Option<bool> {
        for op in atoms {
            match op {
                AtomOp::Check { expr, rel, .. } => {
                    if !self
                        .try_eval(expr)?
                        .is_some_and(|value| value.satisfies(*rel))
                    {
                        return Some(false);
                    }
                }
                AtomOp::Define { slot, value, .. } => match self.try_eval(value)? {
                    Some(value) => self.bind(*slot, value.into_value()),
                    None => return Some(false),
                },
            }
        }
        Some(true)
    }

    /// The slot program of one stage over a ground fact.
    fn match_ground<'v>(
        &mut self,
        args: &[ArgOp],
        atoms: &[AtomOp],
        values: impl ExactSizeIterator<Item = &'v Value>,
    ) -> bool {
        self.match_args(args, values) && self.run_atoms(atoms)
    }

    /// The argument ops of one stage over a ground fact: compare or bind
    /// each value.
    fn match_args<'v>(
        &mut self,
        args: &[ArgOp],
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
        true
    }

    /// Evaluates the atoms scheduled at a stage; `false` once no copy is
    /// live.  A failed check ends the derivation for the copies that list
    /// its atom; a check no live copy lists is skipped.
    fn run_atoms(&mut self, atoms: &[AtomOp]) -> bool {
        for op in atoms {
            match op {
                AtomOp::Check {
                    expr, rel, copies, ..
                } => {
                    if self.live & copies == 0 {
                        continue;
                    }
                    if !self.eval(expr).is_some_and(|value| value.satisfies(*rel)) {
                        self.live &= !copies;
                        if self.live == 0 {
                            return false;
                        }
                    }
                }
                AtomOp::Define { slot, value, .. } => match self.eval(value) {
                    Some(value) => self.bind(*slot, value.into_value()),
                    None => return false,
                },
            }
        }
        true
    }

    /// The head row the compiled head computes over the registers: what a
    /// derivation that stayed ground emits, once for every live copy.
    pub(super) fn head_row(&self, plan: &JoinPlan) -> Option<Derived> {
        plan.head
            .iter()
            .map(|op| match op {
                HeadOp::Const(value) => Some(value.clone()),
                HeadOp::Slot(slot) => self.slots[*slot].clone(),
                HeadOp::Expr(expr) => self.eval(expr).map(Number::into_value),
            })
            .collect::<Option<Vec<Value>>>()
            .map(Derived::Row)
    }

    /// Emits the head of a completed derivation for its one live copy: the
    /// head row when the derivation stayed ground and the copy finishes
    /// ground, else the fact the residual projects to — if the residual is
    /// satisfiable.
    pub(super) fn finish(&mut self, plan: &JoinPlan, head: &Literal) -> Option<Derived> {
        if self.residual.is_none() && self.copy(plan).ground_finish {
            return self.head_row(plan);
        }
        if !self.is_consistent(plan) {
            return None;
        }
        self.build_head_fact(plan, head).map(Derived::Fact)
    }

    /// Whether the derivation's residual constraints are satisfiable — the
    /// one Fourier–Motzkin satisfiability call site — for its one live
    /// copy.  A derivation that stayed ground with every atom of the copy
    /// discharged has nothing left to decide.
    pub(super) fn is_consistent(&mut self, plan: &JoinPlan) -> bool {
        if self.residual.is_none() {
            if self.copy(plan).ground_finish {
                return true;
            }
            if !self.start_residual(plan, plan.steps.len() + 1) {
                return false;
            }
        }
        telemetry::bump(telemetry::Counter::FmSatCalls);
        self.residual
            .as_ref()
            .is_some_and(|residual| residual.extra.is_satisfiable())
    }

    // ---- the symbolic path -------------------------------------------

    /// Begins the symbolic part of a derivation that has run every stage
    /// before `stage` on ground facts, for its one live copy: the copy's
    /// atoms not yet discharged become the residual conjunction,
    /// instantiated with the registers bound so far, in the order a rule
    /// body lists them (the rule's own atoms, then the equalities of
    /// expression arguments already matched).  `false` if an atom reads a
    /// slot holding a symbol — possible only for a copy's private atom,
    /// whose variable the group plan let a symbol bind — which the copy's
    /// own plan would have rejected at that binding.
    fn start_residual(&mut self, plan: &JoinPlan, stage: usize) -> bool {
        let mut extra = Conjunction::truth();
        let pending = |atom: &&PlanAtom| {
            atom.due.map_or(true, |due| due >= stage)
                && atom.origin.map_or(true, |origin| origin < stage)
        };
        let own = self
            .copy(plan)
            .atoms
            .iter()
            .map(|&index| &plan.atoms[index]);
        let arguments = plan.atoms.iter().filter(|atom| atom.origin.is_some());
        for atom in own.chain(arguments).filter(pending) {
            let mut expr = LinearExpr::constant(atom.expr.constant);
            for &(slot, coeff) in &atom.expr.terms {
                match &self.slots[slot] {
                    Some(Value::Sym(_)) => return false,
                    Some(value) => expr.add_constant(
                        coeff * value.as_num().expect("a non-symbol value is a number"),
                    ),
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
        true
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
    use super::{Frame, Number};
    use crate::database::Database;
    use crate::plan::{ProgramPlans, SlotExpr};
    use crate::relation::FactRef;
    use crate::value::Value;
    use pcs_constraints::{Atom, Rational, Rel, Var};
    use pcs_lang::{parse_program, Pred};

    /// Slot arithmetic over [`Rational`]s alone: what `Frame::eval` computed
    /// before its integer path, and what it falls back to.
    fn rational_eval(slots: &[Option<Value>], expr: &SlotExpr) -> Option<Rational> {
        let mut acc = expr.constant;
        for &(slot, coeff) in &expr.terms {
            acc += coeff * slots[slot].as_ref()?.as_num()?;
        }
        Some(acc)
    }

    #[test]
    fn integer_slot_arithmetic_agrees_with_rationals() {
        use proptest::prelude::Strategy as _;
        use proptest::test_runner::TestRng;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let near = |offset: i64| [i64::MAX - offset, i64::MIN + offset];
        let values = |rng: &mut TestRng| -> Option<Value> {
            let small = (-50i64..50).generate(rng);
            match (0u8..8).generate(rng) {
                0 | 1 => Some(Value::Int(small)),
                2 => Some(Value::Int(near(small.abs())[usize::from(small < 0)])),
                3 => Some(Value::num(Rational::ratio(i128::from(small), 7))),
                4 => Some(Value::num(Rational::from_int(i128::from(small) << 100))),
                5 => Some(Value::num(Rational::from_int(i128::from(i64::MAX) + 1))),
                6 => Some(Value::sym("madison")),
                _ => None,
            }
        };
        let number = |rng: &mut TestRng| -> Rational {
            let small = (-9i64..10).generate(rng);
            match (0u8..6).generate(rng) {
                0..=2 => Rational::from_int(i128::from(small)),
                3 => Rational::ratio(i128::from(small), 3),
                4 => Rational::from_int(i128::from(small) << 62),
                _ => Rational::from_int(i128::from(small) << 120),
            }
        };
        let mut paths = [0usize; 3];
        for case in 0..4000 {
            let mut rng = TestRng::for_case(case);
            let slots: Vec<Option<Value>> = (0..4).map(|_| values(&mut rng)).collect();
            let terms = (0..(0usize..5).generate(&mut rng))
                .map(|_| ((0usize..4).generate(&mut rng), number(&mut rng)))
                .filter(|(_, coeff)| !coeff.is_zero())
                .collect();
            let expr = SlotExpr {
                terms,
                constant: number(&mut rng),
            };
            let frame = Frame {
                slots: slots.clone(),
                trail: Vec::new(),
                residual: None,
                live: 1,
            };
            let fast = catch_unwind(AssertUnwindSafe(|| frame.eval(&expr)));
            let slow = catch_unwind(AssertUnwindSafe(|| rational_eval(&slots, &expr)));
            let (fast, slow) = match (fast, slow) {
                (Ok(fast), Ok(slow)) => (fast, slow),
                (Err(_), Err(_)) => {
                    paths[2] += 1;
                    continue;
                }
                (fast, slow) => panic!(
                    "case {case}: {expr:?} over {slots:?}: only one path overflowed \
                     (integer path ok: {}, rational ok: {})",
                    fast.is_ok(),
                    slow.is_ok()
                ),
            };
            paths[usize::from(matches!(fast, Some(Number::Rational(_))))] += 1;
            let context = format!("case {case}: {expr:?} over {slots:?}");
            assert_eq!(
                fast.map(Number::into_value),
                slow.map(Value::num),
                "{context}"
            );
            if let (Some(fast), Some(slow)) = (fast, slow) {
                for (rel, holds) in [
                    (Rel::Le, !slow.is_positive()),
                    (Rel::Lt, slow.is_negative()),
                    (Rel::Eq, slow.is_zero()),
                ] {
                    assert_eq!(fast.satisfies(rel), holds, "{context} {rel:?}");
                }
            }
        }
        // Every path ran: integers, the rational fallback, and overflow.
        assert!(paths.iter().all(|&n| n > 50), "{paths:?}");
    }

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
        let plans = ProgramPlans::compile(&program);
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
        let plans = ProgramPlans::compile(&program);
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
