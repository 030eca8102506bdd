//! Static join plans: every join the evaluator runs is compiled once, per
//! program, into a verified, reusable [`JoinPlan`] — the (rule ×
//! delta-position) bodies of the semi-naive rounds and the three join shapes
//! of a DRed retraction (see [`PlanShape`]).
//!
//! One greedy planner orders them all, from the rule alone: the delta
//! literal leads, then the literal with the most statically bound arguments
//! joins next, ties broken by original position.  Each [`PlanStep`]
//! additionally fixes, at compile time, which argument position probes the
//! relation's hash index (the lowest bound one) and whether the step is a
//! pure existence check — a literal whose bindings are fully determined by
//! the time it is reached can stop at its first match.
//!
//! Every ordered plan is then compiled down to register slots
//! (`SlotCompiler`): the rule's variables are numbered once, each literal
//! argument becomes an [`ArgOp`] (check a constant, check a slot, bind a
//! slot), each constraint atom is scheduled as an [`AtomOp`] at the earliest
//! stage after which all its variables are bound (an equality with one
//! unbound variable becomes a definition, `slot := expr`), and the head
//! becomes a row of [`HeadOp`]s — so that matching ground facts needs no
//! names, no maps and no symbolic substitution.
//!
//! Plan compilation also reports structural join problems as
//! [`PlanFinding`]s, which `pcs-analysis` converts into ordinary diagnostics:
//! a step with no bound probe and no shared variables degrades to a cross
//! product, and a probe-less step that does share a variable with the
//! literals before it is an unbounded scan.
//!
//! Every compiled plan is checked by [`JoinPlan::validate`] before it can be
//! executed: the steps must cover the body exactly once with the window
//! discipline of the plan's shape, every probe column must be bound when its
//! step runs, the bound-variable frontier must cover every head variable
//! the body can bind, and the slot program must write every slot before it
//! reads it and discharge every atom at most once — a planner bug panics at
//! compile time instead of silently dropping derivations.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use pcs_constraints::{Atom, CmpOp, Conjunction, LinearExpr, Rational, Rel, Var};
use pcs_lang::{Literal, Program, Rule, Term};

use crate::relation::Window;
use crate::value::Value;

/// One step of a compiled join plan: which body literal to join, through
/// which semi-naive window, probing which index column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// Index of the body literal (into [`Rule::body`]).
    pub literal: usize,
    /// The window the step reads, fixed by the plan's [`PlanShape`].
    pub window: Window,
    /// The statically chosen probe column (0-based argument position), when
    /// some argument is a constant or is bound by the frontier at this step.
    /// `None` means the step scans its window.  Execution reads the
    /// column's value from the frame and falls back to a scan if its slot is
    /// empty — an earlier constraint-fact match bound it only symbolically.
    pub probe: Option<usize>,
    /// `true` when every argument of the literal is statically bound by the
    /// time this step runs: the step can stop at its first match (an
    /// existence check) provided the relation holds no constraint facts —
    /// ground deduplication then guarantees at most one matching row anyway,
    /// so stopping early changes no statistics.
    pub existence: bool,
    /// How many argument positions were statically bound when the planner
    /// placed this literal (the primary greedy key; recorded for
    /// `.explain`).
    pub bound_args: usize,
    /// One op per argument of the literal: what a ground fact's value at
    /// that position is checked against or bound to (see [`ArgOp`]).
    pub args: Vec<ArgOp>,
    /// The constraint atoms that become ground once this step's arguments
    /// are bound, in an order that runs every definition before its uses.
    pub atoms: Vec<AtomOp>,
}

/// A register of a task's frame: the dense number the slot compiler gives a
/// rule variable (see [`JoinPlan::slots`]).
pub type Slot = usize;

/// A linear expression over frame slots, `Σ coeff·slot + constant`: the
/// compile-time image of a [`LinearExpr`] over rule variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotExpr {
    /// The `(slot, coefficient)` terms; no coefficient is zero.
    pub terms: Vec<(Slot, Rational)>,
    /// The constant part.
    pub constant: Rational,
}

/// What a literal argument does with the value a ground fact holds at its
/// position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgOp {
    /// A constant argument: the fact must hold exactly this value.
    Const(Value),
    /// A variable bound by an earlier op: the fact must hold the slot's
    /// value.
    Check(Slot),
    /// The first occurrence of a variable: the fact's value is written to
    /// the slot.  `numeric` is set when the variable occurs in arithmetic (a
    /// constraint atom, or an expression argument joined by then), where a
    /// symbol can never stand: the step rejects one right here.
    Bind {
        /// The slot written.
        slot: Slot,
        /// Whether only a number may be bound.
        numeric: bool,
    },
    /// An arithmetic argument (`p(X + 1)`): the fact's value, which must be
    /// a number, is written to the hidden slot `column`, and the equality
    /// `expr = column` is scheduled among the atoms like any other
    /// constraint.  `expr` is the argument itself, for probing and the
    /// existence guard.
    Expr {
        /// The hidden slot holding the fact's value at this position.
        column: Slot,
        /// The argument, over slots.
        expr: SlotExpr,
    },
}

/// A constraint atom scheduled at the earliest stage after which every one
/// of its variables is bound (`atom` indexes [`JoinPlan::atoms`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtomOp {
    /// Every slot is bound: `expr rel 0` is evaluated as plain arithmetic.
    Check {
        /// Which atom this discharges.
        atom: usize,
        /// The atom's left-hand side, over slots.
        expr: SlotExpr,
        /// Its relation against zero.
        rel: Rel,
    },
    /// An equality with exactly one unbound slot: `slot := value`, the
    /// compile-time image of [`Atom::as_ground_binding`].
    Define {
        /// Which atom this discharges.
        atom: usize,
        /// The slot defined.
        slot: Slot,
        /// The equality solved for the slot.
        value: SlotExpr,
    },
}

/// One constraint atom of a plan, over slots, with its place in the
/// schedule.  Stages are numbered `0` for [`JoinPlan::entry`] and `i + 1`
/// for `steps[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanAtom {
    /// The atom's canonical left-hand side (`expr rel 0`), over slots.
    pub expr: SlotExpr,
    /// Its relation against zero.
    pub rel: Rel,
    /// The stage whose expression argument introduced the atom; `None` for
    /// the rule's own constraint atoms, present from the start.
    pub origin: Option<usize>,
    /// The stage that discharges it; `None` if some variable of it is never
    /// bound, so it stays symbolic until the derivation's residual check.
    pub due: Option<usize>,
}

/// The ops that run when one literal is matched, or — with no arguments —
/// when a plan resolves the atoms that are ground up front.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Stage {
    /// One op per argument of the matched literal.
    pub args: Vec<ArgOp>,
    /// The atoms scheduled once those arguments are bound.
    pub atoms: Vec<AtomOp>,
}

/// What a compiled head argument emits into the derived row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeadOp {
    /// A constant.
    Const(Value),
    /// The value of a slot.
    Slot(Slot),
    /// An arithmetic expression over slots.
    Expr(SlotExpr),
}

/// What a [`JoinPlan`] joins: which variables are bound before its first
/// step, which body literal (if any) it leaves out, and which window each
/// literal reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanShape {
    /// One semi-naive round: the literal at `delta_pos` reads
    /// [`Window::Delta`] and is joined first, the literals before it read
    /// [`Window::Stable`] and the ones after it [`Window::Known`], so every
    /// new combination of facts is joined exactly once per iteration.
    Round {
        /// The body position whose relation supplies the delta facts.
        delta_pos: usize,
    },
    /// DRed over-deletion: a deleted fact has already been matched against
    /// the literal at `consumed` (binding its variables), and the plan joins
    /// the *other* literals over the full sealed materialization.
    Overdelete {
        /// The body position the deleted fact was consumed at.
        consumed: usize,
    },
    /// DRed re-derivation of one removed ground fact: the head has been
    /// matched against it (binding the head's plain variables), and the plan
    /// joins the whole body over the sealed survivors.
    Pinned,
    /// DRed re-derivation without a pin — the whole body over the sealed
    /// survivors, nothing bound up front.  The fallback when a removed fact
    /// is a proper constraint fact, which a pinned join could under-cover.
    Full,
}

impl PlanShape {
    /// The variables bound before the first step runs.
    fn seed(self, rule: &Rule) -> BTreeSet<Var> {
        match self {
            PlanShape::Round { .. } | PlanShape::Full => BTreeSet::new(),
            PlanShape::Overdelete { consumed } => rule.body[consumed].vars().into_iter().collect(),
            PlanShape::Pinned => rule
                .head
                .args
                .iter()
                .filter_map(|term| match term {
                    Term::Var(v) => Some(v.clone()),
                    _ => None,
                })
                .collect(),
        }
    }

    /// The literal a seed fact is matched against before the first step.
    pub(crate) fn seed_literal(self, rule: &Rule) -> Option<&Literal> {
        match self {
            PlanShape::Round { .. } | PlanShape::Full => None,
            PlanShape::Overdelete { consumed } => Some(&rule.body[consumed]),
            PlanShape::Pinned => Some(&rule.head),
        }
    }

    /// The body literal the plan leaves out, if any.
    fn skip(self) -> Option<usize> {
        match self {
            PlanShape::Overdelete { consumed } => Some(consumed),
            _ => None,
        }
    }

    /// The window the literal at body position `literal` reads.
    fn window_of(self, literal: usize) -> Window {
        match self {
            PlanShape::Round { delta_pos } => match literal.cmp(&delta_pos) {
                std::cmp::Ordering::Less => Window::Stable,
                std::cmp::Ordering::Equal => Window::Delta,
                std::cmp::Ordering::Greater => Window::Known,
            },
            _ => Window::Known,
        }
    }
}

/// One compiled join of a rule body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPlan {
    /// Rule index in the flattened program.
    pub rule: usize,
    /// What the plan joins (seed bindings, skipped literal, windows).
    pub shape: PlanShape,
    /// The join steps, in execution order; a [`PlanShape::Round`] plan's
    /// `steps[0]` is always the delta literal.
    pub steps: Vec<PlanStep>,
    /// The frame layout: slot → the rule variable it holds (expression
    /// arguments get a hidden `_a…` column slot each).  Names are resolved
    /// to slots here, once; execution never looks a variable up.
    pub slots: Vec<Var>,
    /// What runs before the first step.  [`PlanShape::Pinned`] and
    /// [`PlanShape::Overdelete`] match their seed literal (the head, the
    /// consumed body literal) against a fact here; the plan of a body-less
    /// rule and the plan of a query have no seed literal but resolve the
    /// atoms that are ground up front.  `None` for [`PlanShape::Round`] and
    /// an unpinned [`PlanShape::Full`] join, whose frame starts empty: atoms
    /// ground from the start wait for the first step, so step 0 probes only
    /// on constants.
    pub entry: Option<Stage>,
    /// Every constraint atom the plan evaluates — the rule's own, then one
    /// per expression argument — each scheduled at most once.
    pub atoms: Vec<PlanAtom>,
    /// The compiled head, one op per argument (empty for a query).
    pub head: Vec<HeadOp>,
    /// Whether a derivation over ground facts ends ground: every atom is
    /// scheduled and every head variable is bound, so the head is emitted as
    /// a plain row and no symbolic residual is ever built.
    pub ground_finish: bool,
}

/// The kinds of structural problems plan compilation reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlanFindingKind {
    /// A step has no bound probe column and shares no variables with the
    /// frontier: the join degrades to a cross product for this delta
    /// position.
    CrossProductJoin,
    /// A step has no bound probe column but shares a variable with the
    /// frontier: an unbounded scan.
    UnboundedProbe,
}

/// One plan-compilation finding, converted into a `pcs-analysis` diagnostic
/// by the planner pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanFinding {
    /// Rule index in the program.
    pub rule: usize,
    /// Index of the body literal concerned.
    pub literal: usize,
    /// What kind of problem was found.
    pub kind: PlanFindingKind,
    /// The finding, in one sentence.
    pub message: String,
}

/// Every compiled plan of a program plus the findings compilation produced.
///
/// The round plans — the ones [`Self::plan`], [`Self::planned_rules`],
/// [`Self::plans_for`] and `.explain` enumerate — are keyed by
/// (rule, delta-position); the DRed plans of each rule live beside them.
#[derive(Debug, Clone, Default)]
pub struct ProgramPlans {
    plans: BTreeMap<(usize, usize), JoinPlan>,
    /// Over-deletion plans, keyed by (rule, consumed body position).
    overdelete: BTreeMap<(usize, usize), JoinPlan>,
    /// Head-pinned re-derivation plans, keyed by rule.
    pinned: BTreeMap<usize, JoinPlan>,
    /// Unpinned full-rule re-derivation plans, keyed by rule.
    full: BTreeMap<usize, JoinPlan>,
    /// The step-less plans of the body-less rules (facts and constraint
    /// facts), keyed by rule: their atoms and compiled head.
    facts: BTreeMap<usize, JoinPlan>,
    findings: Vec<PlanFinding>,
}

impl ProgramPlans {
    /// Compiles every join plan of a *flattened* program — per rule with a
    /// body, one round plan per delta position, one over-deletion plan per
    /// consumed position, and the pinned and full re-derivation plans.
    /// Every plan is validated before it is returned; a validation failure
    /// is a planner bug and panics.  Findings are reported for the round
    /// plans only: they are where evaluation spends its time, and the DRed
    /// plans join the same literals.
    pub fn compile(program: &Program) -> ProgramPlans {
        let mut compiled = ProgramPlans::default();
        let mut reported: BTreeSet<(usize, usize, PlanFindingKind)> = BTreeSet::new();
        for (rule_index, rule) in program.rules().iter().enumerate() {
            if rule.body.is_empty() {
                // Not a join, so not counted among the compiled join plans.
                let plan = compile_slots(rule_index, PlanShape::Full, Vec::new(), true, rule);
                compiled.facts.insert(rule_index, plan);
                continue;
            }
            let compile = |shape| compile_plan(rule, rule_index, shape);
            for position in 0..rule.body.len() {
                let plan = compile(PlanShape::Round {
                    delta_pos: position,
                });
                report_findings(rule, &plan, &mut compiled.findings, &mut reported);
                compiled.plans.insert((rule_index, position), plan);
                compiled.overdelete.insert(
                    (rule_index, position),
                    compile(PlanShape::Overdelete { consumed: position }),
                );
            }
            compiled
                .pinned
                .insert(rule_index, compile(PlanShape::Pinned));
            compiled.full.insert(rule_index, compile(PlanShape::Full));
        }
        compiled
            .findings
            .sort_by_key(|f| (f.rule, f.literal, f.kind));
        let total = compiled.plans.len()
            + compiled.overdelete.len()
            + compiled.pinned.len()
            + compiled.full.len();
        pcs_telemetry::add(pcs_telemetry::Counter::PlansCompiled, total as u64);
        compiled
    }

    /// The round plan compiled for a (rule, delta-position) pair, if the
    /// rule has a body.
    pub fn plan(&self, rule: usize, delta_pos: usize) -> Option<&JoinPlan> {
        self.plans.get(&(rule, delta_pos))
    }

    /// The rule indices that have at least one round plan, in order.
    pub fn planned_rules(&self) -> Vec<usize> {
        let mut rules: Vec<usize> = self.plans.keys().map(|&(rule, _)| rule).collect();
        rules.dedup();
        rules
    }

    /// All round plans of one rule, by delta position.
    pub fn plans_for(&self, rule: usize) -> Vec<&JoinPlan> {
        self.plans
            .range((rule, 0)..(rule + 1, 0))
            .map(|(_, plan)| plan)
            .collect()
    }

    /// The [`PlanShape::Overdelete`] plan of a rule for a deleted fact
    /// consumed at body position `consumed`.
    pub fn overdelete_plan(&self, rule: usize, consumed: usize) -> Option<&JoinPlan> {
        self.overdelete.get(&(rule, consumed))
    }

    /// The [`PlanShape::Pinned`] plan of a rule, if the rule has a body.
    pub fn pinned_plan(&self, rule: usize) -> Option<&JoinPlan> {
        self.pinned.get(&rule)
    }

    /// The [`PlanShape::Full`] plan of a rule, if the rule has a body.
    pub fn full_plan(&self, rule: usize) -> Option<&JoinPlan> {
        self.full.get(&rule)
    }

    /// The step-less plan of a body-less rule: nothing to join, only the
    /// rule's constraint atoms to resolve and its head to emit.
    pub fn fact_plan(&self, rule: usize) -> Option<&JoinPlan> {
        self.facts.get(&rule)
    }

    /// The findings plan compilation produced, in (rule, literal) order.
    pub fn findings(&self) -> &[PlanFinding] {
        &self.findings
    }
}

/// A planner input with nothing in it: join order comes from the rule alone.
///
/// perfbench pin, deleted in ROADMAP item 1(b).
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct RetiredHints;

/// Forwards to [`ProgramPlans::compile`].
///
/// perfbench pin, deleted in ROADMAP item 1(b).
#[doc(hidden)]
pub fn compile_plans(program: &Program, _hints: &RetiredHints) -> ProgramPlans {
    ProgramPlans::compile(program)
}

/// Compiles and validates the plan of one rule body for one shape.
fn compile_plan(rule: &Rule, rule_index: usize, shape: PlanShape) -> JoinPlan {
    let steps = order_steps(rule, shape.seed(rule), shape.skip(), &|literal| {
        shape.window_of(literal)
    });
    let plan = compile_slots(rule_index, shape, steps, false, rule);
    plan.validate(rule);
    plan
}

/// The one greedy join ordering: starting from the `seed` frontier (plus the
/// variables the rule's own constraints pin to a constant), repeatedly place
/// the body literal — `skip` excluded — with the most statically bound
/// arguments, breaking ties by original position.  A literal reading
/// [`Window::Delta`] always leads: its window is the smallest by
/// construction.  Each placed literal records its probe column (its lowest
/// bound position) and existence flag against the frontier it was placed
/// under, then adds its variables to it.
fn order_steps(
    rule: &Rule,
    seed: BTreeSet<Var>,
    skip: Option<usize>,
    window_of: &dyn Fn(usize) -> Window,
) -> Vec<PlanStep> {
    let mut frontier = seed;
    frontier.extend(constraint_pinned_vars(rule));
    let bound_args = |i: usize, frontier: &BTreeSet<Var>| {
        rule.body[i]
            .args
            .iter()
            .filter(|t| term_statically_bound(t, frontier))
            .count()
    };
    let mut remaining: Vec<usize> = (0..rule.body.len()).filter(|&i| Some(i) != skip).collect();
    let mut steps = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let (slot, &pick) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &i)| {
                (
                    window_of(i) != Window::Delta,
                    Reverse(bound_args(i, &frontier)),
                    i,
                )
            })
            .expect("remaining is non-empty");
        remaining.remove(slot);
        let literal = &rule.body[pick];
        let bound = bound_args(pick, &frontier);
        // Chosen once here instead of per partial match.
        let probe = literal
            .args
            .iter()
            .position(|t| term_statically_bound(t, &frontier));
        steps.push(PlanStep {
            literal: pick,
            window: window_of(pick),
            probe,
            existence: bound == literal.arity() && window_of(pick) != Window::Delta,
            bound_args: bound,
            args: Vec::new(),
            atoms: Vec::new(),
        });
        frontier.extend(literal.vars());
    }
    steps
}

/// Reports the structural problems of one round plan: every step after the
/// delta literal that has no bound probe column is either a cross product
/// (it shares no variable with the literals joined before it) or an
/// unbounded scan (it does, yet no column of it is bound).  Each (rule, literal, kind) is reported once, for the
/// first delta position that exhibits it.
fn report_findings(
    rule: &Rule,
    plan: &JoinPlan,
    findings: &mut Vec<PlanFinding>,
    reported: &mut BTreeSet<(usize, usize, PlanFindingKind)>,
) {
    let PlanShape::Round { delta_pos } = plan.shape else {
        return;
    };
    let mut frontier = constraint_pinned_vars(rule);
    for (index, step) in plan.steps.iter().enumerate() {
        let literal = &rule.body[step.literal];
        if index > 0 && step.probe.is_none() && literal.arity() > 0 {
            // Flattening moves arithmetic into the constraint conjunction, so
            // two literals may be linked only through a constraint atom; close
            // the frontier over constraint connectivity before calling a join
            // a cross product.
            let connected = constraint_connected(&frontier, rule);
            let shares_frontier = literal.vars().iter().any(|v| connected.contains(v));
            let kind = if shares_frontier {
                PlanFindingKind::UnboundedProbe
            } else {
                PlanFindingKind::CrossProductJoin
            };
            if reported.insert((plan.rule, step.literal, kind)) {
                let (at, delta) = (step.literal + 1, delta_pos + 1);
                let message = match kind {
                    PlanFindingKind::CrossProductJoin => format!(
                        "body literal {}@{at} shares no variables with the literals joined before it (delta position {delta}): no indexed order exists and the join degrades to a cross product",
                        literal.predicate
                    ),
                    PlanFindingKind::UnboundedProbe => format!(
                        "body literal {}@{at} is probed with no bound column (delta position {delta}): the step scans the whole window",
                        literal.predicate
                    ),
                };
                findings.push(PlanFinding {
                    rule: plan.rule,
                    literal: step.literal,
                    kind,
                    message,
                });
            }
        }
        frontier.extend(literal.vars());
    }
}

/// The variables the rule's own constraints pin to a constant: bound before
/// any literal is placed.
fn constraint_pinned_vars(rule: &Rule) -> BTreeSet<Var> {
    rule.constraint
        .atoms()
        .iter()
        .filter_map(|atom| atom.as_ground_binding().map(|(v, _)| v))
        .collect()
}

/// The frontier closed over constraint-atom connectivity: a variable that
/// shares a constraint atom with a connected variable is itself connected.
/// Used only to decide whether a probe-less join is a true cross product —
/// probe selection still requires direct frontier membership.
fn constraint_connected(frontier: &BTreeSet<Var>, rule: &Rule) -> BTreeSet<Var> {
    let mut connected = frontier.clone();
    loop {
        let mut changed = false;
        for atom in rule.constraint.atoms() {
            let vars: Vec<_> = atom.vars().collect();
            if vars.iter().any(|v| connected.contains(v)) {
                for v in vars {
                    changed |= connected.insert(v.clone());
                }
            }
        }
        if !changed {
            return connected;
        }
    }
}

/// Whether every variable of `term` is in the frontier (constants count as
/// bound) — the static counterpart of the evaluator's run-time boundness
/// check.
fn term_statically_bound(term: &Term, frontier: &BTreeSet<Var>) -> bool {
    match term {
        Term::Sym(_) | Term::Num(_) => true,
        Term::Var(v) => frontier.contains(v),
        Term::Expr(e) => e.vars().all(|v| frontier.contains(v)),
    }
}

/// Compiles an ordered rule plan down to register slots (see
/// [`SlotCompiler`]).  The entry stage matches the shape's seed literal, if
/// it has one; `resolve_up_front` gives a seedless plan an entry stage that
/// resolves the atoms ground from the start (body-less rules).
fn compile_slots(
    rule_index: usize,
    shape: PlanShape,
    steps: Vec<PlanStep>,
    resolve_up_front: bool,
    rule: &Rule,
) -> JoinPlan {
    let mut compiler = SlotCompiler::new(&rule.constraint);
    let seed = shape.seed_literal(rule);
    let entry = (seed.is_some() || resolve_up_front).then(|| compiler.stage(0, seed));
    compiler.finish(
        rule_index,
        shape,
        steps,
        entry,
        &rule.body,
        Some(&rule.head),
    )
}

/// Compiles the one-literal plan of a query `?- L, C`: an entry stage that
/// resolves what the side constraints pin up front (so `?- q(X), X = 5`
/// probes for 5), then one step over the literal, probing the first argument
/// the entry stage determines.
pub(crate) fn compile_query(literal: &Literal, constraint: &Conjunction) -> JoinPlan {
    let mut compiler = SlotCompiler::new(constraint);
    let entry = compiler.stage(0, None);
    let bound: Vec<bool> = literal
        .args
        .iter()
        .map(|term| compiler.term_bound(term))
        .collect();
    let step = PlanStep {
        literal: 0,
        window: Window::Known,
        probe: bound.iter().position(|&b| b),
        existence: false,
        bound_args: bound.iter().filter(|&&b| b).count(),
        args: Vec::new(),
        atoms: Vec::new(),
    };
    compiler.finish(
        0,
        PlanShape::Full,
        vec![step],
        Some(entry),
        std::slice::from_ref(literal),
        None,
    )
}

/// The slot compiler: numbers the variables of one rule (or query) into
/// dense frame slots and walks the plan's stages in execution order,
/// turning every literal argument into an [`ArgOp`] and scheduling every
/// constraint atom at the earliest stage after which all its variables are
/// bound — so that execution over ground facts is register moves and plain
/// rational arithmetic, with no names, maps or symbolic substitution.
struct SlotCompiler {
    /// Slot → variable.
    slots: Vec<Var>,
    /// Per slot: bound by a stage compiled so far.
    bound: Vec<bool>,
    /// Per slot: occurs in arithmetic seen so far, so only a number fits.
    numeric: Vec<bool>,
    atoms: Vec<PlanAtom>,
}

impl SlotCompiler {
    fn new(constraint: &Conjunction) -> Self {
        let mut compiler = SlotCompiler {
            slots: Vec::new(),
            bound: Vec::new(),
            numeric: Vec::new(),
            atoms: Vec::new(),
        };
        for atom in constraint.atoms() {
            compiler.push_atom(atom, None);
        }
        compiler
    }

    /// The slot of `var`, allocated on first sight.
    fn slot(&mut self, var: &Var) -> Slot {
        if let Some(slot) = self.slots.iter().position(|v| v == var) {
            return slot;
        }
        self.slots.push(var.clone());
        self.bound.push(false);
        self.numeric.push(false);
        self.slots.len() - 1
    }

    /// `expr` over slots; its variables occur in arithmetic from here on.
    fn slot_expr(&mut self, expr: &LinearExpr) -> SlotExpr {
        let terms = expr
            .terms()
            .map(|(var, coeff)| {
                let slot = self.slot(var);
                self.numeric[slot] = true;
                (slot, *coeff)
            })
            .collect();
        SlotExpr {
            terms,
            constant: expr.constant_part(),
        }
    }

    fn push_atom(&mut self, atom: &Atom, origin: Option<usize>) {
        let expr = self.slot_expr(atom.expr());
        self.atoms.push(PlanAtom {
            expr,
            rel: atom.rel(),
            origin,
            due: None,
        });
    }

    /// Whether a term's value is determined by the stages compiled so far.
    fn term_bound(&mut self, term: &Term) -> bool {
        match term {
            Term::Sym(_) | Term::Num(_) => true,
            Term::Var(v) => {
                let slot = self.slot(v);
                self.bound[slot]
            }
            Term::Expr(e) => e.vars().all(|v| {
                let slot = self.slot(v);
                self.bound[slot]
            }),
        }
    }

    /// Compiles stage `index`: the argument ops of `literal` (none for a
    /// stage that only resolves atoms), then every atom that has just become
    /// ground.
    fn stage(&mut self, index: usize, literal: Option<&Literal>) -> Stage {
        let terms = literal.map_or(&[][..], |l| &l.args[..]);
        // The hidden slot holding the fact's value under an expression
        // argument.
        let column = |position: usize| Var::new(format!("_a{index}p{}", position + 1));
        for (position, term) in terms.iter().enumerate() {
            if let Term::Expr(e) = term {
                // `e = column`, exactly the equality flattening would add;
                // pushed before any argument binds so that `p(X, X + 1)`
                // already treats X as arithmetic.
                let equality =
                    Atom::compare(e.clone(), CmpOp::Eq, LinearExpr::var(column(position)));
                self.push_atom(&equality, Some(index));
            }
        }
        let mut args = Vec::with_capacity(terms.len());
        for (position, term) in terms.iter().enumerate() {
            args.push(match term {
                Term::Sym(s) => ArgOp::Const(Value::Sym(*s)),
                Term::Num(n) => ArgOp::Const(Value::num(*n)),
                Term::Var(v) => {
                    let slot = self.slot(v);
                    if self.bound[slot] {
                        ArgOp::Check(slot)
                    } else {
                        self.bound[slot] = true;
                        ArgOp::Bind {
                            slot,
                            numeric: self.numeric[slot],
                        }
                    }
                }
                Term::Expr(e) => {
                    let expr = self.slot_expr(e);
                    let column = self.slot(&column(position));
                    self.bound[column] = true;
                    ArgOp::Expr { column, expr }
                }
            });
        }
        Stage {
            args,
            atoms: self.schedule(index),
        }
    }

    /// Schedules every pending atom that stage `index` makes ground, to a
    /// fixpoint: an equality with one unbound slot defines it, which may
    /// ground further atoms.  Ops come out in dependency order.
    fn schedule(&mut self, index: usize) -> Vec<AtomOp> {
        let mut ops = Vec::new();
        loop {
            let mut defined = false;
            for (atom, pending) in self.atoms.iter_mut().enumerate() {
                if pending.due.is_some() {
                    continue;
                }
                let mut unbound = pending
                    .expr
                    .terms
                    .iter()
                    .filter(|(slot, _)| !self.bound[*slot]);
                match (unbound.next(), unbound.next()) {
                    (None, _) => ops.push(AtomOp::Check {
                        atom,
                        expr: pending.expr.clone(),
                        rel: pending.rel,
                    }),
                    (Some(&(slot, coeff)), None) if pending.rel == Rel::Eq => {
                        // coeff·slot + rest = 0  =>  slot = -rest / coeff
                        let factor = -(Rational::ONE / coeff);
                        let value = SlotExpr {
                            terms: pending
                                .expr
                                .terms
                                .iter()
                                .filter(|(s, _)| *s != slot)
                                .map(|(s, c)| (*s, *c * factor))
                                .collect(),
                            constant: pending.expr.constant * factor,
                        };
                        self.bound[slot] = true;
                        defined = true;
                        ops.push(AtomOp::Define { atom, slot, value });
                    }
                    _ => continue,
                }
                pending.due = Some(index);
            }
            if !defined {
                return ops;
            }
        }
    }

    /// Compiles the steps in order and the head, and assembles the plan.
    fn finish(
        mut self,
        rule: usize,
        shape: PlanShape,
        mut steps: Vec<PlanStep>,
        entry: Option<Stage>,
        body: &[Literal],
        head: Option<&Literal>,
    ) -> JoinPlan {
        for (index, step) in steps.iter_mut().enumerate() {
            let stage = self.stage(index + 1, Some(&body[step.literal]));
            step.args = stage.args;
            step.atoms = stage.atoms;
        }
        assert!(
            entry.is_some() || !steps.is_empty(),
            "a plan without steps resolves its atoms at entry"
        );
        let mut ground_finish = self.atoms.iter().all(|atom| atom.due.is_some());
        let head = head.map_or(Vec::new(), |head| {
            head.args
                .iter()
                .map(|term| {
                    ground_finish &= self.term_bound(term);
                    match term {
                        Term::Sym(s) => HeadOp::Const(Value::Sym(*s)),
                        Term::Num(n) => HeadOp::Const(Value::num(*n)),
                        Term::Var(v) => HeadOp::Slot(self.slot(v)),
                        Term::Expr(e) => HeadOp::Expr(self.slot_expr(e)),
                    }
                })
                .collect()
        });
        JoinPlan {
            rule,
            shape,
            steps,
            slots: self.slots,
            entry,
            atoms: self.atoms,
            head,
            ground_finish,
        }
    }
}

impl JoinPlan {
    /// The slot holding `var`, if the plan's rule mentions it.
    pub fn slot_of(&self, var: &Var) -> Option<Slot> {
        self.slots.iter().position(|v| v == var)
    }

    /// The ops of stage `index`: `0` is the entry stage, `i + 1` is
    /// `steps[i]`.
    pub fn stage(&self, index: usize) -> (&[ArgOp], &[AtomOp]) {
        match index.checked_sub(1) {
            None => self
                .entry
                .as_ref()
                .map_or((&[][..], &[][..]), |s| (&s.args, &s.atoms)),
            Some(step) => (&self.steps[step].args, &self.steps[step].atoms),
        }
    }

    /// Checks the plan against its rule and [`PlanShape`]: the steps must
    /// cover every body literal except the shape's skipped one exactly once,
    /// a round plan's delta literal must come first, every step's window
    /// must be the one its shape prescribes, every probe column must exist
    /// and be bound by the seed or an earlier step, an existence step must
    /// have every argument bound, and the bound-variable frontier after all
    /// steps must cover every head variable the body can bind.  A violation
    /// is a planner bug, not a user error — it panics so it cannot silently
    /// drop derivations.
    pub fn validate(&self, rule: &Rule) {
        let skip = self.shape.skip();
        assert_eq!(
            self.steps.len() + usize::from(skip.is_some()),
            rule.body.len(),
            "{:?} plan must cover every body literal it does not skip",
            self.shape
        );
        if let PlanShape::Round { delta_pos } = self.shape {
            assert_eq!(
                self.steps.first().map(|s| s.literal),
                Some(delta_pos),
                "the delta literal must be joined first"
            );
        }
        let mut frontier = self.shape.seed(rule);
        frontier.extend(constraint_pinned_vars(rule));
        let mut seen = BTreeSet::new();
        for step in &self.steps {
            assert!(
                step.literal < rule.body.len()
                    && Some(step.literal) != skip
                    && seen.insert(step.literal),
                "plan step repeats, exceeds, or joins the skipped body literal"
            );
            assert_eq!(
                step.window,
                self.shape.window_of(step.literal),
                "plan step window violates the {:?} discipline",
                self.shape
            );
            let literal = &rule.body[step.literal];
            if let Some(pos) = step.probe {
                assert!(
                    pos < literal.arity(),
                    "plan probe column exceeds the literal arity"
                );
                assert!(
                    term_statically_bound(&literal.args[pos], &frontier),
                    "plan probe column is not bound when its step runs"
                );
            }
            if step.existence {
                assert!(
                    step.window != Window::Delta
                        && literal
                            .args
                            .iter()
                            .all(|t| term_statically_bound(t, &frontier)),
                    "existence step has unbound arguments"
                );
            }
            frontier.extend(literal.vars());
        }
        for var in rule.head_vars() {
            if rule.body_literal_vars().contains(&var) {
                assert!(
                    frontier.contains(&var),
                    "plan does not bind head variable {var}"
                );
            }
        }
        self.validate_slots();
    }

    /// Replays the slot program stage by stage: no op may read a slot before
    /// some op has written it or write one twice, and every atom must be
    /// discharged exactly once, at the stage it records — or never.
    fn validate_slots(&self) {
        let mut bound = vec![false; self.slots.len()];
        fn bind(slot: Slot, bound: &mut [bool]) {
            assert!(
                !std::mem::replace(&mut bound[slot], true),
                "slot program binds a slot twice"
            );
        }
        let mut discharged = vec![false; self.atoms.len()];
        for index in 0..=self.steps.len() {
            let (args, atoms) = self.stage(index);
            for op in args {
                match op {
                    ArgOp::Const(_) => {}
                    ArgOp::Check(slot) => {
                        assert!(bound[*slot], "slot program checks an unbound slot");
                    }
                    ArgOp::Bind { slot, .. } | ArgOp::Expr { column: slot, .. } => {
                        bind(*slot, &mut bound);
                    }
                }
            }
            for op in atoms {
                let (atom, reads) = match op {
                    AtomOp::Check { atom, expr, .. } => (*atom, expr),
                    AtomOp::Define { atom, value, .. } => (*atom, value),
                };
                assert!(
                    reads.terms.iter().all(|(slot, _)| bound[*slot]),
                    "slot program evaluates an atom before its slots are bound"
                );
                if let AtomOp::Define { slot, .. } = op {
                    bind(*slot, &mut bound);
                }
                assert!(
                    self.atoms[atom].due == Some(index)
                        && !std::mem::replace(&mut discharged[atom], true),
                    "slot program discharges an atom twice or at the wrong stage"
                );
            }
        }
        for (atom, done) in discharged.iter().enumerate() {
            assert_eq!(
                *done,
                self.atoms[atom].due.is_some(),
                "slot program loses a scheduled atom"
            );
        }
    }

    /// Renders the plan as one deterministic line (no timings, no sizes), for
    /// `.explain` and its golden tests: what the join starts from and each
    /// step with its window, probe choice, bound-argument count and — in
    /// braces — the slot program it runs: the variables it binds, the atoms
    /// it defines a variable from (`T := T1 + T2 + 30`) and the atoms it
    /// checks.
    pub fn render(&self, rule: &Rule) -> String {
        let at = |i: usize| format!("{}@{}", rule.body[i].predicate, i + 1);
        let mut out = match self.shape {
            PlanShape::Round { delta_pos } => format!("delta {}", at(delta_pos)),
            PlanShape::Overdelete { consumed } => format!("overdelete {}", at(consumed)),
            PlanShape::Pinned => "rederive pinned".to_string(),
            PlanShape::Full => "rederive full".to_string(),
        };
        out.push_str(&self.render_ops(0));
        out.push(':');
        for (i, step) in self.steps.iter().enumerate() {
            let literal = &rule.body[step.literal];
            let window = match step.window {
                Window::Stable => "stable",
                Window::Delta => "delta",
                Window::Known => "known",
            };
            let access = match step.probe {
                Some(pos) => format!("probe ${}", pos + 1),
                None => "scan".to_string(),
            };
            let exists = if step.existence { " exists" } else { "" };
            let _ = write!(
                out,
                "{} {} {window} {access}{exists} [bound {}/{}]{}",
                if i == 0 { "" } else { " ->" },
                at(step.literal),
                step.bound_args,
                literal.arity(),
                self.render_ops(i + 1),
            );
        }
        out
    }

    /// The slot program of one stage as ` {bind X, Y; T := …; check …}`, or
    /// nothing for a stage that binds and evaluates nothing.
    fn render_ops(&self, stage: usize) -> String {
        let (args, atoms) = self.stage(stage);
        let linear = |expr: &SlotExpr| {
            LinearExpr::from_terms(
                expr.terms
                    .iter()
                    .map(|(slot, coeff)| (*coeff, self.slots[*slot].clone())),
                expr.constant,
            )
        };
        let binds: Vec<String> = args
            .iter()
            .filter_map(|op| match op {
                ArgOp::Bind { slot, .. } | ArgOp::Expr { column: slot, .. } => {
                    Some(self.slots[*slot].to_string())
                }
                ArgOp::Const(_) | ArgOp::Check(_) => None,
            })
            .collect();
        let mut parts = Vec::new();
        if !binds.is_empty() {
            parts.push(format!("bind {}", binds.join(", ")));
        }
        for op in atoms {
            parts.push(match op {
                AtomOp::Define { slot, value, .. } => {
                    format!("{} := {}", self.slots[*slot], linear(value))
                }
                AtomOp::Check { expr, rel, .. } => {
                    format!("check {}", Atom::new(linear(expr), *rel))
                }
            });
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!(" {{{}}}", parts.join("; "))
        }
    }
}

impl PlanFindingKind {
    /// The stable kebab-case name of the finding kind.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanFindingKind::CrossProductJoin => "cross-product-join",
            PlanFindingKind::UnboundedProbe => "unbounded-probe",
        }
    }
}

/// Renders every plan of a program as indented, deterministic lines — the
/// body of the shell's `.explain` command.  Rules are labeled like
/// diagnostics (`r3`, or `#2` for unlabeled rules) with their source line
/// when known.
pub fn render_plans(program: &Program, plans: &ProgramPlans) -> Vec<String> {
    let mut lines = Vec::new();
    for rule_index in plans.planned_rules() {
        let rule = &program.rules()[rule_index];
        let name = rule
            .label
            .clone()
            .unwrap_or_else(|| format!("#{}", rule_index + 1));
        let position = rule
            .span
            .map(|span| format!(" (line {})", span.line))
            .unwrap_or_default();
        lines.push(format!("plan for rule {name}{position}: {rule}"));
        for plan in plans.plans_for(rule_index) {
            lines.push(format!("  {}", plan.render(rule)));
        }
    }
    if lines.is_empty() {
        lines.push("no plans: the program has no rules with body literals".to_string());
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_lang::parse_program;

    #[test]
    fn plans_cover_every_rule_and_delta_position() {
        let program = parse_program(
            "r1: q(X, Y) :- a(X, Y), X <= 4.\n\
             r2: a(X, Y) :- b1(X, Z), b2(Z, Y).\n\
             ?- q(U, V).",
        )
        .unwrap()
        .flattened();
        let plans = ProgramPlans::compile(&program);
        assert!(plans.plan(0, 0).is_some());
        assert!(plans.plan(1, 0).is_some());
        assert!(plans.plan(1, 1).is_some());
        assert!(plans.plan(0, 1).is_none());
        assert_eq!(plans.planned_rules(), vec![0, 1]);
        assert!(plans.findings().is_empty(), "{:?}", plans.findings());
        // Delta literal first, shared-variable literal probed on the join
        // column: delta b2 (position 1) binds Z, so b1 probes its second
        // argument.
        let plan = plans.plan(1, 1).unwrap();
        assert_eq!(plan.steps[0].literal, 1);
        assert_eq!(plan.steps[0].window, Window::Delta);
        assert_eq!(plan.steps[1].literal, 0);
        assert_eq!(plan.steps[1].window, Window::Stable);
        assert_eq!(plan.steps[1].probe, Some(1));
        assert!(!plan.steps[1].existence);
    }

    #[test]
    fn ties_break_by_original_position() {
        // After the delta literal binds X, both other literals have one
        // bound argument: the earlier one joins first.
        let program = parse_program("q(X) :- a(X), wide(Y, X), narrow(Z, X).\n?- q(U).")
            .unwrap()
            .flattened();
        let order: Vec<usize> = ProgramPlans::compile(&program)
            .plan(0, 0)
            .unwrap()
            .steps
            .iter()
            .map(|s| s.literal)
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn fully_bound_literals_become_existence_checks() {
        let program = parse_program("q(X, Y) :- e(X, Y), f(X, Y), g(Y).\n?- q(U, V).")
            .unwrap()
            .flattened();
        let plans = ProgramPlans::compile(&program);
        let plan = plans.plan(0, 0).unwrap();
        // After e(X, Y), both f and g are fully bound.
        assert!(plan.steps[1].existence);
        assert!(plan.steps[2].existence);
        assert!(!plan.steps[0].existence, "the delta step enumerates");
    }

    #[test]
    fn cross_product_and_unbounded_probe_are_reported_once() {
        let program = parse_program("q(X, Y) :- a(X), b(Y).\n?- q(U, V).")
            .unwrap()
            .flattened();
        let plans = ProgramPlans::compile(&program);
        // b is a cross product from delta position 0, a from position 1 —
        // each reported once despite two delta positions.
        let kinds: Vec<(usize, PlanFindingKind)> = plans
            .findings()
            .iter()
            .map(|f| (f.literal, f.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (0, PlanFindingKind::CrossProductJoin),
                (1, PlanFindingKind::CrossProductJoin)
            ]
        );
        // A constraint link (flattening rewrites `b(X + Y)` into `b(_f)` with
        // `X + Y - _f = 0`) downgrades the finding to unbounded-probe: each
        // literal is scanned from the other's delta position.
        let chained = parse_program("q(X, Y) :- a(X), b(X + Y).\n?- q(U, V).")
            .unwrap()
            .flattened();
        let plans = ProgramPlans::compile(&chained);
        let kinds: Vec<(usize, PlanFindingKind)> = plans
            .findings()
            .iter()
            .map(|f| (f.literal, f.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (0, PlanFindingKind::UnboundedProbe),
                (1, PlanFindingKind::UnboundedProbe)
            ]
        );
    }

    #[test]
    fn render_is_deterministic_and_duration_free() {
        let program = parse_program(
            "r2: a(X, Y) :- b1(X, Z), b2(Z, Y).\n\
             ?- a(U, V).",
        )
        .unwrap()
        .flattened();
        let plans = ProgramPlans::compile(&program);
        let lines = render_plans(&program, &plans);
        assert_eq!(
            lines,
            vec![
                "plan for rule r2 (line 1): r2: a(X, Y) :- b1(X, Z), b2(Z, Y).".to_string(),
                "  delta b1@1: b1@1 delta scan [bound 0/2] {bind X, Z} -> b2@2 known probe $1 [bound 1/2] {bind Y}"
                    .to_string(),
                "  delta b2@2: b2@2 delta scan [bound 0/2] {bind Z, Y} -> b1@1 stable probe $2 [bound 1/2] {bind X}"
                    .to_string(),
            ]
        );
    }

    #[test]
    fn dred_plans_seed_skip_and_read_known_windows() {
        let program = parse_program("r: h(X, W) :- a(X, Y), b(Y, Z), c(Z, W).\n?- h(U, V).")
            .unwrap()
            .flattened();
        let rule = &program.rules()[0];
        let plans = ProgramPlans::compile(&program);
        let order = |plan: &JoinPlan| -> Vec<(usize, Option<usize>)> {
            assert!(plan.steps.iter().all(|s| s.window == Window::Known));
            plan.steps.iter().map(|s| (s.literal, s.probe)).collect()
        };
        // A deleted b fact binds Y and Z: a probes its Y column, c its Z
        // column, and b itself is not joined again.
        let overdelete = plans.overdelete_plan(0, 1).unwrap();
        assert_eq!(overdelete.shape, PlanShape::Overdelete { consumed: 1 });
        assert_eq!(order(overdelete), vec![(0, Some(1)), (2, Some(0))]);
        // Pinning the head binds X and W: every step probes, and the last
        // one only checks existence.
        let pinned = plans.pinned_plan(0).unwrap();
        assert_eq!(
            order(pinned),
            vec![(0, Some(0)), (1, Some(0)), (2, Some(0))]
        );
        assert!(pinned.steps[2].existence, "c(Z, W) is fully bound by then");
        // Nothing bound up front: the first literal scans.
        let full = plans.full_plan(0).unwrap();
        assert_eq!(order(full), vec![(0, None), (1, Some(0)), (2, Some(0))]);
        assert_eq!(
            overdelete.render(rule),
            "overdelete b@2 {bind Y, Z}: a@1 known probe $2 [bound 1/2] {bind X} -> c@3 known probe $1 [bound 1/2] {bind W}"
        );
        // Only the round plans are enumerated (and rendered by `.explain`).
        assert_eq!(plans.plans_for(0).len(), 3);
        // A rule without a body has no plans of any shape.
        let facts_only = parse_program("p(1).\n?- p(X).").unwrap().flattened();
        let plans = ProgramPlans::compile(&facts_only);
        assert!(plans.pinned_plan(0).is_none() && plans.full_plan(0).is_none());
    }

    /// The slot program of every stage of `plan`, rendered (entry first).
    fn slot_program(plan: &JoinPlan) -> Vec<String> {
        (0..=plan.steps.len())
            .map(|stage| plan.render_ops(stage))
            .collect()
    }

    /// Every plan `ProgramPlans::compile` builds for rule 0, of every shape.
    fn all_plans(plans: &ProgramPlans, body: usize) -> Vec<&JoinPlan> {
        let mut all: Vec<&JoinPlan> = Vec::new();
        for position in 0..body {
            all.push(plans.plan(0, position).unwrap());
            all.push(plans.overdelete_plan(0, position).unwrap());
        }
        all.push(plans.pinned_plan(0).unwrap());
        all.push(plans.full_plan(0).unwrap());
        all
    }

    #[test]
    fn every_atom_is_scheduled_once_at_the_earliest_ground_stage() {
        let program = parse_program(
            "r: h(X, T) :- a(X, Y), b(Y, Z), c(Z, W), Y <= 5, T = Y + Z, W >= T, X = 1.\n\
             ?- h(U, V).",
        )
        .unwrap()
        .flattened();
        let rule = &program.rules()[0];
        let plans = ProgramPlans::compile(&program);
        for plan in all_plans(&plans, 3) {
            // Replay: the slots bound after each stage.
            let mut bound: Vec<BTreeSet<Slot>> = Vec::new();
            let mut current = BTreeSet::new();
            let mut ops_per_atom = vec![0; plan.atoms.len()];
            for stage in 0..=plan.steps.len() {
                let (args, atoms) = plan.stage(stage);
                for op in args {
                    if let ArgOp::Bind { slot, .. } = op {
                        current.insert(*slot);
                    }
                }
                for op in atoms {
                    match op {
                        AtomOp::Check { atom, .. } => ops_per_atom[*atom] += 1,
                        AtomOp::Define { atom, slot, .. } => {
                            ops_per_atom[*atom] += 1;
                            current.insert(*slot);
                        }
                    }
                }
                bound.push(current.clone());
            }
            // The first stage that runs anything: the entry stage if the
            // plan has one, else step 0.
            let first = usize::from(plan.entry.is_none());
            for (index, atom) in plan.atoms.iter().enumerate() {
                let shape = plan.shape;
                assert_eq!(ops_per_atom[index], 1, "{shape:?}: atom {index} op count");
                let due = atom.due.expect("every variable of this rule gets bound");
                if due == first {
                    continue;
                }
                // One stage earlier the atom was not yet dischargeable: a
                // check still missed a slot, a definition missed two.
                let missing = atom
                    .expr
                    .terms
                    .iter()
                    .filter(|(slot, _)| !bound[due - 1].contains(slot))
                    .count();
                let defines = plan
                    .stage(due)
                    .1
                    .iter()
                    .any(|op| matches!(op, AtomOp::Define { atom, .. } if *atom == index));
                assert!(
                    missing > usize::from(defines),
                    "{shape:?}: atom {index} could have run at stage {}",
                    due - 1
                );
            }
            assert!(plan.ground_finish, "{:?}", plan.shape);
            plan.validate(rule);
        }
        // Spot checks.  From delta a: X = 1 and Y <= 5 are checked as soon
        // as `a` binds X and Y, `b` defines T, `c` completes W >= T.
        assert_eq!(
            slot_program(plans.plan(0, 0).unwrap()),
            vec![
                "",
                " {bind X, Y; check Y <= 5; check X = 1}",
                " {bind Z; T := Y + Z}",
                " {bind W; check T - W <= 0}",
            ]
        );
        // From delta c nothing but W is comparable yet; `b` then brings in
        // Y, and with it T.
        assert_eq!(
            slot_program(plans.plan(0, 2).unwrap())[1..3],
            [
                " {bind Z, W; X := 1}",
                " {bind Y; check Y <= 5; T := Y + Z; check T - W <= 0}"
            ]
        );
    }

    #[test]
    fn equalities_with_one_unbound_variable_become_definitions() {
        // The flights composition: both sums are definitions, run as soon
        // as the second leg binds their last operand — never carried
        // symbolically — and the head is a row of four slots.
        let program = parse_program(
            "r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), \
                 T = T1 + T2 + 30, C = C1 + C2, T <= 240.\n\
             ?- flight(A, B, U, V).",
        )
        .unwrap()
        .flattened();
        let plans = ProgramPlans::compile(&program);
        let plan = plans.plan(0, 0).unwrap();
        assert_eq!(
            slot_program(plan),
            vec![
                "",
                " {bind S, D1, T1, C1}",
                " {bind D, T2, C2; T := T1 + T2 + 30; C := C1 + C2; check T <= 240}",
            ]
        );
        assert!(plan.ground_finish);
        assert!(plan.head.iter().all(|op| matches!(op, HeadOp::Slot(_))));
        // Definitions chain within one stage, in dependency order, even
        // when the rule lists them the other way round.
        let chained = parse_program("p(Z) :- Z = Y + 1, Y = X + 1, X = 5.")
            .unwrap()
            .flattened();
        let plans = ProgramPlans::compile(&chained);
        assert_eq!(
            slot_program(plans.fact_plan(0).unwrap()),
            vec![" {X := 5; Y := X + 1; Z := Y + 1}"]
        );
        // A variable nothing binds keeps its atoms out of the schedule: the
        // derivation ends in the symbolic residual.
        let open = parse_program("q(X, Y) :- a(X), Y >= X.")
            .unwrap()
            .flattened();
        let plans = ProgramPlans::compile(&open);
        let plan = plans.plan(0, 0).unwrap();
        assert_eq!(plan.atoms[0].due, None);
        assert!(!plan.ground_finish);
    }

    #[test]
    fn repeated_constant_and_expression_arguments_compile_to_ops() {
        // Not flattened: expression arguments reach the slot compiler as a
        // query's do.
        let program = parse_program("q(X) :- p(X, X, 7, madison), r(X + 1, Y, 2 * Y).").unwrap();
        let plans = ProgramPlans::compile(&program);
        let plan = plans.plan(0, 0).unwrap();
        let x = plan.slot_of(&Var::new("X")).unwrap();
        let y = plan.slot_of(&Var::new("Y")).unwrap();
        // X is arithmetic only from the step that joins `r(X + 1, …)`.
        assert_eq!(
            plan.steps[0].args,
            vec![
                ArgOp::Bind {
                    slot: x,
                    numeric: false
                },
                ArgOp::Check(x),
                ArgOp::Const(Value::num(7)),
                ArgOp::Const(Value::sym("madison")),
            ]
        );
        // The expression arguments bind hidden column slots; their
        // equalities are scheduled like constraint atoms: X + 1 = column is
        // a check (X is bound), 2·Y = column too once the plain Y binds.
        let r = &plan.steps[1];
        assert!(
            matches!(&r.args[0], ArgOp::Expr { expr, .. } if expr.terms == vec![(x, Rational::ONE)])
        );
        assert_eq!(
            r.args[1],
            ArgOp::Bind {
                slot: y,
                numeric: true
            }
        );
        assert_eq!(
            slot_program(plan)[2],
            " {bind _a2p1, Y, _a2p3; check X - _a2p1 = -1; check Y - 1/2*_a2p3 = 0}"
        );
        // Alone, an expression argument defines its variable.
        let alone = parse_program("q(X) :- s(X + 1).").unwrap();
        let plans = ProgramPlans::compile(&alone);
        assert_eq!(
            slot_program(plans.plan(0, 0).unwrap())[1],
            " {bind _a1p1; X := _a1p1 - 1}"
        );
        // A query resolves its side constraints before the literal: X is a
        // check — and the probe column — by the time `q` is matched.
        let query = pcs_lang::parse_query("q(X, Y), X = 5, Y <= X").unwrap();
        let plan = compile_query(&query.literals[0], &query.constraint);
        assert_eq!(
            slot_program(&plan),
            vec![" {X := 5}", " {bind Y; check -X + Y <= 0}"]
        );
        assert_eq!(plan.steps[0].probe, Some(0));
        assert!(matches!(plan.steps[0].args[0], ArgOp::Check(_)));
    }

    #[test]
    fn dred_seeds_bind_their_slots_at_entry() {
        let program =
            parse_program("r: h(X, T) :- a(X, Y), b(Y, Z), T = Y + Z, X <= 9.\n?- h(U, V).")
                .unwrap()
                .flattened();
        let plans = ProgramPlans::compile(&program);
        // Pinned: the head binds X and T, X <= 9 is decided before any join,
        // and the steps compare against the pinned slots — with T known,
        // T = Y + Z defines Z as soon as `a` binds Y, so `b` only checks.
        let pinned = plans.pinned_plan(0).unwrap();
        assert_eq!(
            slot_program(pinned),
            vec![" {bind X, T; check X <= 9}", " {bind Y; Z := T - Y}", ""]
        );
        assert!(matches!(pinned.steps[0].args[0], ArgOp::Check(_)));
        assert!(pinned.steps[1]
            .args
            .iter()
            .all(|op| matches!(op, ArgOp::Check(_))));
        // Over-deletion: the consumed literal's variables are bound by the
        // deleted fact, and the remaining literal is joined against them.
        let overdelete = plans.overdelete_plan(0, 1).unwrap();
        assert_eq!(
            slot_program(overdelete),
            vec![" {bind Y, Z; T := Y + Z}", " {bind X; check X <= 9}"]
        );
        assert_eq!(
            overdelete.steps[0].args,
            vec![
                ArgOp::Bind {
                    slot: overdelete.slot_of(&Var::new("X")).unwrap(),
                    numeric: true
                },
                ArgOp::Check(overdelete.slot_of(&Var::new("Y")).unwrap()),
            ]
        );
        // Round and full plans start from an empty frame.
        assert!(plans.plan(0, 0).unwrap().entry.is_none());
        assert!(plans.full_plan(0).unwrap().entry.is_none());
    }

    /// Asserts `plan.validate(rule)` panics with a message containing
    /// `expected`.
    fn assert_rejected(plan: &JoinPlan, rule: &Rule, expected: &str) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.validate(rule)));
        let payload = result.expect_err("validation should reject the plan");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains(expected), "{message:?} lacks {expected:?}");
    }

    #[test]
    fn validation_rejects_misordered_plans() {
        let program = parse_program("q(X) :- a(X), b(X, Y), c(Y).\n?- q(U).")
            .unwrap()
            .flattened();
        let rule = &program.rules()[0];
        let plans = ProgramPlans::compile(&program);

        // Round: the delta literal must lead.
        let mut round = plans.plan(0, 0).unwrap().clone();
        round.steps.swap(0, 1);
        assert_rejected(&round, rule, "delta literal must be joined first");

        // Over-deletion: the consumed literal is not joined again...
        let overdelete = plans.overdelete_plan(0, 0).unwrap();
        let mut rejoined = overdelete.clone();
        rejoined.steps[0].literal = 0;
        assert_rejected(&rejoined, rule, "joins the skipped body literal");
        // ...and every other literal appears.
        let mut short = overdelete.clone();
        short.steps.pop();
        assert_rejected(&short, rule, "must cover every body literal");

        // Every DRed step reads the whole sealed materialization.
        let mut windowed = plans.pinned_plan(0).unwrap().clone();
        windowed.steps[1].window = Window::Stable;
        assert_rejected(&windowed, rule, "window violates");

        // Probe columns must be bound by the seed or an earlier step: the
        // pinned plan may probe a(X) first (the head binds X), the full plan
        // may not probe c(Y) before b binds Y.
        let mut full = plans.full_plan(0).unwrap().clone();
        assert_eq!(full.steps[2].literal, 2);
        full.steps.swap(1, 2);
        assert_rejected(&full, rule, "probe column is not bound");
        let mut unseeded = plans.pinned_plan(0).unwrap().clone();
        assert_eq!(unseeded.steps[0].probe, Some(0));
        unseeded.shape = PlanShape::Full;
        assert_rejected(&unseeded, rule, "probe column is not bound");
    }
}
