//! One round of derivation work: the tasks an iteration decomposes into,
//! the join executor they run, and the in-order absorption of what they
//! derive.

use std::collections::BTreeMap;

use pcs_telemetry as telemetry;

use pcs_lang::{Literal, Pred, Rule};

use super::matching::{copies_in, Derived, Frame};
use super::EvalOptions;
use crate::fact::Fact;
use crate::limits::Termination;
use crate::plan::{JoinPlan, PlanStep};
use crate::relation::{FactRef, InsertOutcome, Relation};
use crate::stats::{DerivationRecord, IterationStats};
use crate::value::Value;

/// One unit of derivation work inside an iteration.  A task only reads the
/// relations; its derivations are absorbed before the next task's group
/// runs.
pub(super) struct RoundTask<'a> {
    /// The rule whose head and body the plan joins: the first of its copy
    /// group.
    pub(super) rule: &'a Rule,
    /// Every rule's display label for derivation records, by rule index.
    pub(super) labels: &'a [String],
    /// The plan the task runs, borrowed from the evaluator's precompiled
    /// [`ProgramPlans`](crate::plan::ProgramPlans): the literal order, the
    /// per-literal probe column, the existence-shortcut flags and the slot
    /// program were all fixed at plan-compilation time.
    pub(super) plan: &'a JoinPlan,
    pub(super) kind: TaskKind<'a>,
}

/// Where a [`RoundTask`] starts its plan.
pub(super) enum TaskKind<'a> {
    /// One semi-naive round body: the delta-window fact indices (into the
    /// delta literal's relation) this task feeds to step 0.
    Delta { candidates: Vec<usize> },
    /// From the plan's entry stage.  With a `seed`, a retraction
    /// re-derivation whose head is pinned to that over-deleted fact; without
    /// one, a rule's full re-derivation join, or the step-less plan of a
    /// body-less rule (a fact or constraint fact, fired in iteration 0).
    Entry { seed: Option<&'a Fact> },
}

/// Runs the tasks of one round on the calling thread and stops at the first
/// limit hit.  Pending insertions are invisible to every
/// [`Window`](crate::Window), so a task never sees what an earlier task of
/// the same round derived: the round's result depends only on the task
/// order.
///
/// Consecutive tasks of one plan group (a rule's delta positions, or its
/// re-derivation targets) run together, and their derivations are absorbed
/// copy by copy: the first copy's from every task, then the second's.  That
/// is the order in which separate plans per copy would have inserted them,
/// so a copy group stores the very facts, in the very order, that its
/// copies would — while a derivation live for several copies is absorbed
/// once, under the first of them.
///
/// No task generates more than the derivation budget left in `totals` at
/// the start of the round: anything beyond it would be discarded by the
/// limit check, so a single task cannot buffer unboundedly past
/// `max_derivations`.
pub(super) fn run_and_absorb(
    tasks: &[RoundTask<'_>],
    options: &EvalOptions,
    relations: &mut BTreeMap<Pred, Relation>,
    iter_stats: &mut IterationStats,
    totals: &mut EvalTotals,
) -> Option<Termination> {
    let budget = options
        .limits
        .max_derivations
        .saturating_sub(totals.derivations);
    let mut rest = tasks;
    while let Some(first) = rest.first() {
        let together = rest
            .iter()
            .take_while(|task| task.plan.rule == first.plan.rule)
            .count();
        let (group, later) = rest.split_at(together);
        rest = later;
        let mut derived: Vec<Vec<Vec<Derived>>> = group
            .iter()
            .map(|task| run_task(task, relations, budget))
            .collect();
        for copy in 0..first.plan.copies.len() {
            let label = &first.labels[first.plan.copies[copy].rule];
            for per_task in &mut derived {
                let hit_limit = absorb_derived(
                    std::mem::take(&mut per_task[copy]),
                    &first.rule.head.predicate,
                    label,
                    options,
                    relations,
                    iter_stats,
                    totals,
                );
                if hit_limit.is_some() {
                    return hit_limit;
                }
            }
        }
    }
    None
}

/// Runs one task to completion, collecting at most `cap` derivations, per
/// copy of its plan.
fn run_task(
    task: &RoundTask<'_>,
    relations: &BTreeMap<Pred, Relation>,
    cap: usize,
) -> Vec<Vec<Derived>> {
    let mut executor = Executor::new(task.rule, task.plan, relations, cap);
    match &task.kind {
        TaskKind::Delta { candidates } => executor.join_delta(candidates),
        TaskKind::Entry { seed } => executor.join_from_entry(seed.map(FactRef::Stored)),
    }
    executor.derived
}

/// Running totals of an evaluation, shared by the limit checks.
pub(super) struct EvalTotals {
    /// Derivations absorbed so far (across all iterations).
    pub(super) derivations: usize,
    /// Facts currently stored across all relations.
    pub(super) facts: usize,
}

/// Inserts the derivations one round task made for one copy, updating the
/// per-iteration statistics.  Returns the limit that was hit, if any.
///
/// Both limits are enforced *per fact*: the first insertion that reaches
/// `max_facts` (or the first derivation that reaches `max_derivations`)
/// stops the absorption immediately, so a single huge iteration cannot
/// overshoot the caps by the size of its buffered round.  The fact limit
/// takes precedence when both trip on the same fact.
fn absorb_derived(
    derived: Vec<Derived>,
    predicate: &Pred,
    label: &str,
    options: &EvalOptions,
    relations: &mut BTreeMap<Pred, Relation>,
    iter_stats: &mut IterationStats,
    totals: &mut EvalTotals,
) -> Option<Termination> {
    if derived.is_empty() {
        return None;
    }
    let relation = relations.entry(predicate.clone()).or_default();
    for derived in derived {
        totals.derivations += 1;
        iter_stats.derivations += 1;
        let (rendered, outcome) = match derived {
            Derived::Row(row) => (
                options.trace.then(|| {
                    FactRef::Ground {
                        predicate,
                        row: &row,
                    }
                    .to_string()
                }),
                relation.insert_row(predicate, row),
            ),
            Derived::Fact(fact) => (
                options.trace.then(|| fact.to_string()),
                relation.insert(fact),
            ),
        };
        let is_new = outcome == InsertOutcome::Added;
        if is_new {
            iter_stats.new_facts += 1;
            totals.facts += 1;
        } else {
            iter_stats.subsumed += 1;
        }
        if let Some(fact) = rendered {
            iter_stats.records.push(DerivationRecord {
                rule: label.to_string(),
                fact,
                new: is_new,
            });
        }
        if totals.facts >= options.limits.max_facts {
            return Some(Termination::FactLimit);
        }
        if totals.derivations >= options.limits.max_derivations {
            return Some(Termination::DerivationLimit);
        }
    }
    // A database over the fact limit before any rule fires is caught by the
    // loop-top check in `run_fixpoint`, so reaching here means under-limit.
    None
}

/// The fact indices `step` can match under the frame's registers, in visit
/// order, and whether they came from the index: the statically planned probe
/// column is probed with the concrete value the registers determine for it;
/// when the plan chose no column, or the column's slot is still empty —
/// step 0 of a round, or a variable an earlier constraint-fact match bound
/// only symbolically — the step scans its window.
fn step_candidates<'r>(
    step: &PlanStep,
    frame: &Frame,
    relation: &'r Relation,
) -> (bool, impl Iterator<Item = usize> + 'r) {
    let probe = step
        .probe
        .and_then(|pos| frame.key(&step.args[pos]).map(|value| (pos, value)));
    if probe.is_some() {
        telemetry::bump(telemetry::Counter::IndexProbes);
    }
    let range = relation.window_range(step.window);
    let probe_ref = probe.as_ref().map(|(pos, value)| (*pos, value));
    (probe.is_some(), relation.candidates(range, probe_ref))
}

/// The delta-window fact indices the first (delta) step of a round plan can
/// match, in the exact order the join visits them: the planned probe column
/// (a constant of the literal; the frame is still empty at step 0) probes
/// the relation's hash index, and a literal with no constant argument falls
/// back to scanning the delta window.
pub(super) fn delta_candidates(plan: &JoinPlan, relation: &Relation) -> Vec<usize> {
    step_candidates(&plan.steps[0], &Frame::new(plan), relation)
        .1
        .collect()
}

/// The one join executor: one task's frame, the relation each step of its
/// plan reads (resolved once, not per partial match), and the derivations
/// collected so far, per copy of the plan.
pub(super) struct Executor<'a> {
    rule: &'a Rule,
    plan: &'a JoinPlan,
    /// Per step: the relation of its literal, if the program has facts for
    /// it.
    relations: Vec<Option<&'a Relation>>,
    frame: Frame,
    /// Per copy: what the derivations live for it emitted.  A ground row
    /// live for several copies is emitted once, under the first.
    pub(super) derived: Vec<Vec<Derived>>,
    /// Derivations collected so far, across the copies.
    count: usize,
    cap: usize,
    /// The row an existence step looks up, reused across lookups.
    row: Vec<Value>,
}

impl<'a> Executor<'a> {
    pub(super) fn new(
        rule: &'a Rule,
        plan: &'a JoinPlan,
        relations: &'a BTreeMap<Pred, Relation>,
        cap: usize,
    ) -> Self {
        Executor {
            rule,
            plan,
            relations: plan
                .steps
                .iter()
                .map(|step| relations.get(&rule.body[step.literal].predicate))
                .collect(),
            frame: Frame::new(plan),
            derived: plan.copies.iter().map(|_| Vec::new()).collect(),
            count: 0,
            cap,
            row: Vec::new(),
        }
    }

    /// Runs a round plan over its delta candidates (step 0 is enumerated by
    /// [`delta_candidates`], so it counts no probe hits).
    fn join_delta(&mut self, candidates: &[usize]) {
        let Some(relation) = self.relations[0] else {
            return;
        };
        let rule = self.rule;
        let literal = &rule.body[self.plan.steps[0].literal];
        for &index in candidates {
            if self.count >= self.cap {
                break;
            }
            let mark = self.frame.mark();
            self.extend(1, literal, relation.fact_ref(index));
            self.frame.undo(mark);
        }
    }

    /// Runs a plan from its entry stage: matches `seed` against the shape's
    /// seed literal (a pinned head, an over-deletion's consumed literal),
    /// resolves the atoms ground up front, then joins every step.
    pub(super) fn join_from_entry(&mut self, seed: Option<FactRef<'_>>) {
        let rule = self.rule;
        let mark = self.frame.mark();
        match self.plan.shape.seed_literal(rule).zip(seed) {
            Some((literal, fact)) => {
                self.extend(0, literal, fact);
            }
            None => {
                if self.frame.enter(self.plan) {
                    self.join(0);
                }
            }
        }
        self.frame.undo(mark);
    }

    /// Matches `fact` against `literal`, the literal of stage `stage`, and
    /// on a match joins on from step `stage` (the next one).  A fact that
    /// would start a residual while several copies are live is matched once
    /// per live copy, each continuing alone.  Returns whether any match
    /// succeeded; the caller undoes to its mark either way.
    fn extend(&mut self, stage: usize, literal: &Literal, fact: FactRef<'_>) -> bool {
        if !self.frame.must_split(fact) {
            let matched = self.frame.match_literal(self.plan, stage, literal, fact);
            if matched {
                self.join(stage);
            }
            return matched;
        }
        let mut matched = false;
        for copy in copies_in(self.frame.live()) {
            let mark = self.frame.mark();
            self.frame.restrict(copy);
            if self.frame.match_literal(self.plan, stage, literal, fact) {
                matched = true;
                self.join(stage);
            }
            self.frame.undo(mark);
        }
        matched
    }

    /// Emits the head of a completed derivation.  One that stayed ground,
    /// where every copy finishes ground, emits one row under its first live
    /// copy; otherwise each live copy finishes alone (a ground-finishing
    /// copy's row still only once).
    fn emit(&mut self) {
        let live = self.frame.live();
        let first = live.trailing_zeros() as usize;
        if self.frame.is_ground() && self.plan.ground_finish {
            if let Some(row) = self.frame.head_row(self.plan) {
                self.derived[first].push(row);
                self.count += 1;
            }
            return;
        }
        let mut row_emitted = false;
        for copy in copies_in(live) {
            let ground = self.frame.is_ground() && self.plan.copies[copy].ground_finish;
            if ground && std::mem::replace(&mut row_emitted, true) {
                continue;
            }
            let mark = self.frame.mark();
            self.frame.restrict(copy);
            if let Some(derived) = self.frame.finish(self.plan, &self.rule.head) {
                self.derived[copy].push(derived);
                self.count += 1;
            }
            self.frame.undo(mark);
        }
    }

    /// Drains every derivation collected so far, whichever copy made it.
    pub(super) fn drain_derived(&mut self) -> impl Iterator<Item = Derived> + '_ {
        self.count = 0;
        self.derived
            .iter_mut()
            .flat_map(|derived| derived.drain(..))
    }

    /// Recursively joins the body literals along the plan from `step`
    /// onwards, collecting the head of every completed derivation until
    /// `cap` have been collected.
    ///
    /// The probe column of every step was fixed at plan-compilation time; if
    /// a constraint-fact match left that column without a concrete value at
    /// run time, the step falls back to scanning its window.  A step the
    /// plan marked as an existence check, once every argument resolves to a
    /// concrete value and the relation holds no constraint facts, looks its
    /// one possible row up in the relation's row hash instead — ground
    /// deduplication guarantees at most one matching row, so the lookup
    /// replaces the probe without changing any derivation, and builds no
    /// column index.  Those two run-time guards are what makes a static plan
    /// safe for every input, constraint facts included.
    fn join(&mut self, step: usize) {
        if self.count >= self.cap {
            return;
        }
        let Some(plan_step) = self.plan.steps.get(step) else {
            self.emit();
            return;
        };
        let Some(relation) = self.relations[step] else {
            return;
        };
        let rule = self.rule;
        let literal = &rule.body[plan_step.literal];
        if plan_step.existence && relation.constraint_fact_count() == 0 && self.key_row(plan_step) {
            let range = relation.window_range(plan_step.window);
            if let Some(index) = relation.find_row(&self.row).filter(|i| range.contains(i)) {
                let mark = self.frame.mark();
                if self.extend(step + 1, literal, relation.fact_ref(index)) {
                    telemetry::bump(telemetry::Counter::ExistenceShortcuts);
                }
                self.frame.undo(mark);
            }
            return;
        }
        let (probed, candidates) = step_candidates(plan_step, &self.frame, relation);
        for index in candidates {
            let mark = self.frame.mark();
            let matched = self.extend(step + 1, literal, relation.fact_ref(index));
            if probed {
                telemetry::bump(if matched {
                    telemetry::Counter::ProbeHits
                } else {
                    telemetry::Counter::ProbeMisses
                });
            }
            self.frame.undo(mark);
        }
    }

    /// Fills the reused row buffer with the concrete value every argument
    /// of `step` holds under the registers; `false` if one has none.
    fn key_row(&mut self, step: &PlanStep) -> bool {
        self.row.clear();
        for op in &step.args {
            match self.frame.key(op) {
                Some(value) => self.row.push(value),
                None => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::{EvalOptions, Evaluator};
    use crate::database::Database;
    use crate::limits::{EvalLimits, Termination};
    use crate::value::Value;
    use pcs_lang::parse_program;

    #[test]
    fn fact_limit_is_enforced_inside_an_iteration() {
        // One iteration of the cross-product rule derives 100 facts; the cap
        // must stop the round mid-iteration, not after absorbing all of it.
        let mut db = Database::new();
        for i in 0..10 {
            db.add_ground("p", vec![Value::num(i)]);
        }
        let program = parse_program("q(X, Y) :- p(X), p(Y).").unwrap();
        let options = EvalOptions {
            limits: EvalLimits {
                max_facts: 20,
                ..EvalLimits::default()
            },
            ..EvalOptions::default()
        };
        let result = Evaluator::new(&program, options).evaluate(&db);
        assert_eq!(result.termination, Termination::FactLimit);
        assert_eq!(result.total_facts(), 20);
    }

    #[test]
    fn derivation_limit_is_enforced_inside_an_iteration() {
        let mut db = Database::new();
        for i in 0..10 {
            db.add_ground("p", vec![Value::num(i)]);
        }
        let program = parse_program("q(X, Y) :- p(X), p(Y).").unwrap();
        let options = EvalOptions {
            limits: EvalLimits {
                max_derivations: 13,
                ..EvalLimits::default()
            },
            ..EvalOptions::default()
        };
        let result = Evaluator::new(&program, options).evaluate(&db);
        assert_eq!(result.termination, Termination::DerivationLimit);
        assert_eq!(result.stats.total_derivations(), 13);
    }

    #[test]
    fn arithmetic_overflow_panics_with_its_descriptive_message() {
        // `Y := 2·X` is compiled arithmetic; doubling i128::MAX overflows,
        // and the panic must reach the caller with the rational layer's
        // message, not as an anonymous join error.
        let mut db = Database::new();
        for x in [1, i128::MAX] {
            db.add_ground(
                "n",
                vec![Value::num(pcs_constraints::Rational::from_int(x))],
            );
        }
        let program = parse_program("m(Y) :- n(X), Y = X + X.").unwrap();
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| evaluator.evaluate(&db)))
                .expect_err("doubling i128::MAX overflows");
        let message = payload
            .downcast_ref::<String>()
            .expect("the rational layer panics with a formatted message");
        assert!(message.contains("overflowed i128"), "{message}");
    }
}
