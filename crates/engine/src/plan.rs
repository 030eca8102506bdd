//! Static join plans: every join the evaluator runs is compiled once, per
//! program, into a verified, reusable [`JoinPlan`] — the (rule ×
//! delta-position) bodies of the semi-naive rounds and the three join shapes
//! of a DRed retraction (see [`PlanShape`]).
//!
//! One greedy planner orders them all: the literal with the most statically
//! bound arguments joins next, ties broken by a static selectivity estimate
//! derived from the analyzer's per-position interval bounds
//! ([`SelectivityHints`], produced by `pcs-analysis` from its `Selectivity`
//! summary): a body literal whose positions are pinned or bounded by the
//! inferred constraints is a cheap probe and joins early.  Each [`PlanStep`]
//! additionally fixes, at compile time, which argument position probes the
//! relation's hash index and whether the step is a pure existence check — a
//! literal whose bindings are fully determined by the time it is reached can
//! stop at its first match.
//!
//! Plan compilation also reports structural join problems as
//! [`PlanFinding`]s, which `pcs-analysis` converts into ordinary diagnostics:
//! a step with no bound probe and no shared variables degrades to a cross
//! product, a probe-less step over a predicate with no bounded position is an
//! unbounded scan, and a body literal over a provably empty predicate makes
//! the whole plan degenerate.
//!
//! Every compiled plan is checked by [`JoinPlan::validate`] before it can be
//! executed: the steps must cover the body exactly once with the window
//! discipline of the plan's shape, every probe column must be bound when its
//! step runs, and the bound-variable frontier must cover every head variable
//! the body can bind — a planner bug panics at compile time instead of
//! silently dropping derivations.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use pcs_constraints::Var;
use pcs_lang::{Pred, Program, Rule, Term};

use crate::relation::Window;

/// Static per-position selectivity classes handed to the planner.
///
/// This is deliberately plain data (no dependency on the analyzer): the
/// engine only needs to know, per predicate argument position, whether the
/// inferred interval pins the position to a point, bounds it on both sides,
/// or leaves it unbounded.  `pcs-analysis` converts its `Selectivity`
/// summary into these hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SelectivityClass {
    /// The position is pinned to a single value.
    Point,
    /// The position is bounded below and above.
    Bounded,
    /// No interval (or only a one-sided bound) is known.
    Unbounded,
}

impl SelectivityClass {
    /// A deterministic cost rank: lower is more selective.
    fn rank(self) -> usize {
        match self {
            SelectivityClass::Point => 0,
            SelectivityClass::Bounded => 1,
            SelectivityClass::Unbounded => 2,
        }
    }

    /// The kebab-case spelling used in `.explain` renderings.
    pub fn as_str(self) -> &'static str {
        match self {
            SelectivityClass::Point => "point",
            SelectivityClass::Bounded => "bounded",
            SelectivityClass::Unbounded => "unbounded",
        }
    }
}

/// Analyzer-derived selectivity estimates consumed by the plan compiler.
///
/// Empty hints are always valid: every position defaults to
/// [`SelectivityClass::Unbounded`] and no predicate is provably empty, in
/// which case the planner falls back to the purely structural
/// most-bound-first order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelectivityHints {
    classes: BTreeMap<Pred, Vec<SelectivityClass>>,
    empty: BTreeSet<Pred>,
}

impl SelectivityHints {
    /// Hints with no information (every position unbounded).
    pub fn new() -> Self {
        SelectivityHints::default()
    }

    /// Records the per-position classes of one predicate (0-based positions).
    pub fn set_classes(&mut self, pred: Pred, classes: Vec<SelectivityClass>) {
        self.classes.insert(pred, classes);
    }

    /// Marks a predicate as provably empty (its inferred constraint is
    /// unsatisfiable): every plan joining it is degenerate.
    pub fn mark_empty(&mut self, pred: Pred) {
        self.empty.insert(pred);
    }

    /// The class of `pred`'s argument position `position` (0-based);
    /// unanalyzed predicates and positions are unbounded.
    pub fn class(&self, pred: &Pred, position: usize) -> SelectivityClass {
        self.classes
            .get(pred)
            .and_then(|v| v.get(position))
            .copied()
            .unwrap_or(SelectivityClass::Unbounded)
    }

    /// Returns `true` if the predicate's inferred constraint is unsatisfiable.
    pub fn is_provably_empty(&self, pred: &Pred) -> bool {
        self.empty.contains(pred)
    }

    /// Returns `true` if the hints carry no information at all.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty() && self.empty.is_empty()
    }

    /// The class of a literal's most selective position: the planner's
    /// tie-break between equally bound literals.
    fn literal_class(&self, pred: &Pred, arity: usize) -> SelectivityClass {
        (0..arity)
            .map(|i| self.class(pred, i))
            .min_by_key(|c| c.rank())
            .unwrap_or(SelectivityClass::Unbounded)
    }
}

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
    /// `None` means the step scans its window.  Execution resolves the
    /// column's value from the partial match and falls back to a scan if an
    /// earlier constraint-fact match left it undetermined.
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
    /// The literal's most selective position class (the greedy tie-break;
    /// recorded for `.explain`).
    pub class: SelectivityClass,
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
}

/// The kinds of structural problems plan compilation reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlanFindingKind {
    /// A step has no bound probe column and shares no variables with the
    /// frontier: the join degrades to a cross product for this delta
    /// position.
    CrossProductJoin,
    /// A step has no bound probe column and the analyzer knows no bounded
    /// position for its predicate: an unbounded scan.
    UnboundedProbe,
    /// A body literal's predicate is provably empty: the plan can never
    /// produce a derivation.
    DegeneratePlan,
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
    findings: Vec<PlanFinding>,
}

impl ProgramPlans {
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

    /// The findings plan compilation produced, in (rule, literal) order.
    pub fn findings(&self) -> &[PlanFinding] {
        &self.findings
    }
}

/// Compiles every join plan of a *flattened* program — per rule with a body,
/// one round plan per delta position, one over-deletion plan per consumed
/// position, and the pinned and full re-derivation plans — using the
/// analyzer-derived selectivity hints for the cost model.  Every plan is
/// validated before it is returned; a validation failure is a planner bug
/// and panics.  Findings are reported for the round plans only: they are
/// where evaluation spends its time, and the DRed plans join the same
/// literals.
pub fn compile_plans(program: &Program, hints: &SelectivityHints) -> ProgramPlans {
    let mut compiled = ProgramPlans::default();
    let mut reported: BTreeSet<(usize, usize, PlanFindingKind)> = BTreeSet::new();
    for (rule_index, rule) in program.rules().iter().enumerate() {
        for (literal_index, literal) in rule.body.iter().enumerate() {
            if hints.is_provably_empty(&literal.predicate)
                && reported.insert((rule_index, literal_index, PlanFindingKind::DegeneratePlan))
            {
                compiled.findings.push(PlanFinding {
                    rule: rule_index,
                    literal: literal_index,
                    kind: PlanFindingKind::DegeneratePlan,
                    message: format!(
                        "body literal {}@{} can never match: the analyzer proves predicate {} empty, so every plan for this rule is degenerate",
                        literal.predicate,
                        literal_index + 1,
                        literal.predicate
                    ),
                });
            }
        }
        if rule.body.is_empty() {
            continue;
        }
        let compile = |shape| compile_plan(rule, rule_index, shape, hints);
        for position in 0..rule.body.len() {
            let plan = compile(PlanShape::Round {
                delta_pos: position,
            });
            report_findings(rule, &plan, hints, &mut compiled.findings, &mut reported);
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

/// Compiles and validates the plan of one rule body for one shape.
fn compile_plan(
    rule: &Rule,
    rule_index: usize,
    shape: PlanShape,
    hints: &SelectivityHints,
) -> JoinPlan {
    let plan = JoinPlan {
        rule: rule_index,
        shape,
        steps: order_steps(
            rule,
            shape.seed(rule),
            shape.skip(),
            &|literal| shape.window_of(literal),
            hints,
        ),
    };
    plan.validate(rule);
    plan
}

/// The one greedy join ordering: starting from the `seed` frontier (plus the
/// variables the rule's own constraints pin to a constant), repeatedly place
/// the body literal — `skip` excluded — with the most statically bound
/// arguments, breaking ties by the hint class of its most selective position
/// and then by original position.  A literal reading [`Window::Delta`] always
/// leads: its window is the smallest by construction.  Each placed literal
/// records its probe column and existence flag against the frontier it was
/// placed under, then adds its variables to it.
fn order_steps(
    rule: &Rule,
    seed: BTreeSet<Var>,
    skip: Option<usize>,
    window_of: &dyn Fn(usize) -> Window,
    hints: &SelectivityHints,
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
    let class = |i: usize| hints.literal_class(&rule.body[i].predicate, rule.body[i].arity());
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
                    class(i).rank(),
                    i,
                )
            })
            .expect("remaining is non-empty");
        remaining.remove(slot);
        let literal = &rule.body[pick];
        let bound = bound_args(pick, &frontier);
        // Probe the most selective bound column (by hint class, then lowest
        // position) — chosen once here instead of per partial match.
        let probe = literal
            .args
            .iter()
            .enumerate()
            .filter(|(_, t)| term_statically_bound(t, &frontier))
            .min_by_key(|&(pos, _)| (hints.class(&literal.predicate, pos).rank(), pos))
            .map(|(pos, _)| pos);
        steps.push(PlanStep {
            literal: pick,
            window: window_of(pick),
            probe,
            existence: bound == literal.arity() && window_of(pick) != Window::Delta,
            bound_args: bound,
            class: class(pick),
        });
        frontier.extend(literal.vars());
    }
    steps
}

/// Reports the structural problems of one round plan: every step after the
/// delta literal that has no bound probe column is either a cross product
/// (it shares no variable with the literals joined before it) or an
/// unbounded scan (it does, but the analyzer knows no bounded position for
/// its predicate).  Each (rule, literal, kind) is reported once, for the
/// first delta position that exhibits it.
fn report_findings(
    rule: &Rule,
    plan: &JoinPlan,
    hints: &SelectivityHints,
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
            let kind = if !shares_frontier {
                Some(PlanFindingKind::CrossProductJoin)
            } else if (0..literal.arity())
                .all(|i| hints.class(&literal.predicate, i) == SelectivityClass::Unbounded)
            {
                Some(PlanFindingKind::UnboundedProbe)
            } else {
                None
            };
            if let Some(kind) =
                kind.filter(|&kind| reported.insert((plan.rule, step.literal, kind)))
            {
                let (at, delta) = (step.literal + 1, delta_pos + 1);
                let message = match kind {
                    PlanFindingKind::CrossProductJoin => format!(
                        "body literal {}@{at} shares no variables with the literals joined before it (delta position {delta}): no indexed order exists and the join degrades to a cross product",
                        literal.predicate
                    ),
                    _ => format!(
                        "body literal {}@{at} is probed with no bound column and no constraint interval (delta position {delta}): the step scans the whole window",
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
/// probe selection still requires direct frontier membership, because only
/// those bindings are resolvable from the partial match at run time.
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

impl JoinPlan {
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
    }

    /// Renders the plan as one deterministic line (no timings, no sizes), for
    /// `.explain` and its golden tests: what the join starts from and each
    /// step with its window, probe choice, and static cost annotation.
    pub fn render(&self, rule: &Rule) -> String {
        let at = |i: usize| format!("{}@{}", rule.body[i].predicate, i + 1);
        let mut out = match self.shape {
            PlanShape::Round { delta_pos } => format!("delta {}:", at(delta_pos)),
            PlanShape::Overdelete { consumed } => format!("overdelete {}:", at(consumed)),
            PlanShape::Pinned => "rederive pinned:".to_string(),
            PlanShape::Full => "rederive full:".to_string(),
        };
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
                "{} {} {window} {access}{exists} [bound {}/{}, {}]",
                if i == 0 { "" } else { " ->" },
                at(step.literal),
                step.bound_args,
                literal.arity(),
                step.class,
            );
        }
        out
    }
}

impl std::fmt::Display for SelectivityClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl PlanFindingKind {
    /// The stable kebab-case name of the finding kind.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanFindingKind::CrossProductJoin => "cross-product-join",
            PlanFindingKind::UnboundedProbe => "unbounded-probe",
            PlanFindingKind::DegeneratePlan => "degenerate-plan",
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

    fn hints_with(pred: &str, classes: Vec<SelectivityClass>) -> SelectivityHints {
        let mut hints = SelectivityHints::new();
        hints.set_classes(Pred::new(pred), classes);
        hints
    }

    #[test]
    fn plans_cover_every_rule_and_delta_position() {
        let program = parse_program(
            "r1: q(X, Y) :- a(X, Y), X <= 4.\n\
             r2: a(X, Y) :- b1(X, Z), b2(Z, Y).\n\
             ?- q(U, V).",
        )
        .unwrap()
        .flattened();
        let plans = compile_plans(&program, &SelectivityHints::new());
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
    fn selectivity_hints_break_ordering_ties() {
        // Neither literal shares variables with the delta literal's X, both
        // have zero bound arguments — the bounded one joins first.
        let program = parse_program("q(X) :- a(X), wide(Y, X), narrow(Z, X).\n?- q(U).")
            .unwrap()
            .flattened();
        let mut hints = hints_with(
            "narrow",
            vec![SelectivityClass::Bounded, SelectivityClass::Unbounded],
        );
        hints.set_classes(
            Pred::new("wide"),
            vec![SelectivityClass::Unbounded, SelectivityClass::Unbounded],
        );
        let plan_order = |hints: &SelectivityHints| -> Vec<usize> {
            compile_plans(&program, hints)
                .plan(0, 0)
                .unwrap()
                .steps
                .iter()
                .map(|s| s.literal)
                .collect()
        };
        // Both literals have one bound argument (X); hints promote narrow.
        assert_eq!(plan_order(&hints), vec![0, 2, 1]);
        // Without hints the tie breaks by original position.
        assert_eq!(plan_order(&SelectivityHints::new()), vec![0, 1, 2]);
    }

    #[test]
    fn fully_bound_literals_become_existence_checks() {
        let program = parse_program("q(X, Y) :- e(X, Y), f(X, Y), g(Y).\n?- q(U, V).")
            .unwrap()
            .flattened();
        let plans = compile_plans(&program, &SelectivityHints::new());
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
        let plans = compile_plans(&program, &SelectivityHints::new());
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
        // A bounded hint does not silence a true cross product...
        let bounded = hints_with("b", vec![SelectivityClass::Bounded]);
        let plans = compile_plans(&program, &bounded);
        assert_eq!(plans.findings().len(), 2);
        // ...but a constraint link (flattening rewrites `b(X + Y)` into
        // `b(_f)` with `X + Y - _f = 0`) downgrades the finding to
        // unbounded-probe — each literal is scanned from the other's delta
        // position — and a bounded hint silences the hinted side.
        let chained = parse_program("q(X, Y) :- a(X), b(X + Y).\n?- q(U, V).")
            .unwrap()
            .flattened();
        let plans = compile_plans(&chained, &SelectivityHints::new());
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
        let plans = compile_plans(&chained, &hints_with("b", vec![SelectivityClass::Bounded]));
        assert_eq!(plans.findings().len(), 1);
        assert_eq!(plans.findings()[0].literal, 0);
    }

    #[test]
    fn empty_predicates_make_plans_degenerate() {
        let program = parse_program("q(X) :- never(X), e(X).\n?- q(U).")
            .unwrap()
            .flattened();
        let mut hints = SelectivityHints::new();
        hints.mark_empty(Pred::new("never"));
        let plans = compile_plans(&program, &hints);
        let degenerate: Vec<&PlanFinding> = plans
            .findings()
            .iter()
            .filter(|f| f.kind == PlanFindingKind::DegeneratePlan)
            .collect();
        assert_eq!(degenerate.len(), 1);
        assert_eq!(degenerate[0].literal, 0);
        assert!(degenerate[0].message.contains("never"));
    }

    #[test]
    fn render_is_deterministic_and_duration_free() {
        let program = parse_program(
            "r2: a(X, Y) :- b1(X, Z), b2(Z, Y).\n\
             ?- a(U, V).",
        )
        .unwrap()
        .flattened();
        let plans = compile_plans(&program, &SelectivityHints::new());
        let lines = render_plans(&program, &plans);
        assert_eq!(
            lines,
            vec![
                "plan for rule r2 (line 1): r2: a(X, Y) :- b1(X, Z), b2(Z, Y).".to_string(),
                "  delta b1@1: b1@1 delta scan [bound 0/2, unbounded] -> b2@2 known probe $1 [bound 1/2, unbounded]"
                    .to_string(),
                "  delta b2@2: b2@2 delta scan [bound 0/2, unbounded] -> b1@1 stable probe $2 [bound 1/2, unbounded]"
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
        let plans = compile_plans(&program, &SelectivityHints::new());
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
            "overdelete b@2: a@1 known probe $2 [bound 1/2, unbounded] -> c@3 known probe $1 [bound 1/2, unbounded]"
        );
        // Only the round plans are enumerated (and rendered by `.explain`).
        assert_eq!(plans.plans_for(0).len(), 3);
        // A rule without a body has no plans of any shape.
        let facts_only = parse_program("p(1).\n?- p(X).").unwrap().flattened();
        let plans = compile_plans(&facts_only, &SelectivityHints::new());
        assert!(plans.pinned_plan(0).is_none() && plans.full_plan(0).is_none());
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
        let plans = compile_plans(&program, &SelectivityHints::new());

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
