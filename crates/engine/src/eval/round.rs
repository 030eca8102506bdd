//! One round of derivation work: the tasks an iteration decomposes into,
//! the join executor they run, and the in-order absorption of what they
//! derive.

use std::collections::BTreeMap;

use pcs_telemetry as telemetry;

use pcs_lang::{Pred, Rule};

use super::matching::{Derived, Frame};
use super::EvalOptions;
use crate::fact::Fact;
use crate::limits::{EvalLimits, Termination};
use crate::plan::{JoinPlan, PlanStep};
use crate::relation::{FactRef, InsertOutcome, Relation};
use crate::stats::{DerivationRecord, IterationStats};

/// One unit of derivation work inside an iteration.  A task only reads the
/// relations; its derivations are absorbed before the next task runs.
pub(super) struct RoundTask<'a> {
    pub(super) rule: &'a Rule,
    /// The rule's display label for derivation records.
    pub(super) label: &'a str,
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

/// Runs the tasks of one round on the calling thread, absorbing each task's
/// derivations before the next task runs, and stops at the first limit hit.
/// Pending insertions are invisible to every [`Window`](crate::Window), so
/// a task never sees what an earlier task of the same round derived: the
/// round's result depends only on the task order.
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
    for task in tasks {
        let derived = run_task(task, relations, budget);
        let hit_limit = absorb_derived(
            derived,
            task,
            options.trace,
            &options.limits,
            relations,
            iter_stats,
            totals,
        );
        if hit_limit.is_some() {
            return hit_limit;
        }
    }
    None
}

/// Runs one task to completion, collecting at most `cap` derivations.
fn run_task(
    task: &RoundTask<'_>,
    relations: &BTreeMap<Pred, Relation>,
    cap: usize,
) -> Vec<Derived> {
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

/// Inserts the derivations made by one round task, updating the
/// per-iteration statistics.  Returns the limit that was hit, if any.
///
/// Both limits are enforced *per fact*: the first insertion that reaches
/// `max_facts` (or the first derivation that reaches `max_derivations`)
/// stops the absorption immediately, so a single huge iteration cannot
/// overshoot the caps by the size of its buffered round.  The fact limit
/// takes precedence when both trip on the same fact.
fn absorb_derived(
    derived: Vec<Derived>,
    task: &RoundTask<'_>,
    trace: bool,
    limits: &EvalLimits,
    relations: &mut BTreeMap<Pred, Relation>,
    iter_stats: &mut IterationStats,
    totals: &mut EvalTotals,
) -> Option<Termination> {
    if derived.is_empty() {
        return None;
    }
    // Every derivation of a task has the rule's head predicate.
    let predicate = &task.rule.head.predicate;
    let relation = relations.entry(predicate.clone()).or_default();
    for derived in derived {
        totals.derivations += 1;
        iter_stats.derivations += 1;
        let (rendered, outcome) = match derived {
            Derived::Row(row) => (
                trace.then(|| {
                    FactRef::Ground {
                        predicate,
                        row: &row,
                    }
                    .to_string()
                }),
                relation.insert_row(predicate, row),
            ),
            Derived::Fact(fact) => (trace.then(|| fact.to_string()), relation.insert(fact)),
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
                rule: task.label.to_string(),
                fact,
                new: is_new,
            });
        }
        if totals.facts >= limits.max_facts {
            return Some(Termination::FactLimit);
        }
        if totals.derivations >= limits.max_derivations {
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
/// collected so far.
pub(super) struct Executor<'a> {
    rule: &'a Rule,
    plan: &'a JoinPlan,
    /// Per step: the relation of its literal, if the program has facts for
    /// it.
    relations: Vec<Option<&'a Relation>>,
    frame: Frame,
    pub(super) derived: Vec<Derived>,
    cap: usize,
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
            derived: Vec::new(),
            cap,
        }
    }

    /// Runs a round plan over its delta candidates (step 0 is enumerated by
    /// [`delta_candidates`], so it counts no probe hits).
    fn join_delta(&mut self, candidates: &[usize]) {
        let Some(relation) = self.relations[0] else {
            return;
        };
        let literal = &self.rule.body[self.plan.steps[0].literal];
        for &index in candidates {
            if self.derived.len() >= self.cap {
                break;
            }
            let mark = self.frame.mark();
            if self
                .frame
                .match_literal(self.plan, 1, literal, relation.fact_ref(index))
            {
                self.join(1);
            }
            self.frame.undo(mark);
        }
    }

    /// Runs a plan from its entry stage: matches `seed` against the shape's
    /// seed literal (a pinned head, an over-deletion's consumed literal),
    /// resolves the atoms ground up front, then joins every step.
    pub(super) fn join_from_entry(&mut self, seed: Option<FactRef<'_>>) {
        let seed = self.plan.shape.seed_literal(self.rule).zip(seed);
        let mark = self.frame.mark();
        if self.frame.enter(self.plan, seed) {
            self.join(0);
        }
        self.frame.undo(mark);
    }

    /// Recursively joins the body literals along the plan from `step`
    /// onwards, collecting the head of every completed derivation until
    /// `cap` have been collected.
    ///
    /// The probe column of every step was fixed at plan-compilation time; if
    /// a constraint-fact match left that column without a concrete value at
    /// run time, the step falls back to scanning its window.  A step the
    /// plan marked as an existence check stops at its first match — guarded
    /// to the case where every argument resolves to a concrete value and the
    /// relation holds no constraint facts, in which ground deduplication
    /// guarantees at most one matching row anyway, so the shortcut saves the
    /// rest of the scan without changing any statistics.  Those two run-time
    /// guards are what makes a static plan safe for every input, constraint
    /// facts included.
    fn join(&mut self, step: usize) {
        if self.derived.len() >= self.cap {
            return;
        }
        let Some(plan_step) = self.plan.steps.get(step) else {
            self.derived
                .extend(self.frame.finish(self.plan, &self.rule.head));
            return;
        };
        let Some(relation) = self.relations[step] else {
            return;
        };
        let literal = &self.rule.body[plan_step.literal];
        let exists_only = plan_step.existence
            && relation.constraint_fact_count() == 0
            && plan_step.args.iter().all(|op| self.frame.key(op).is_some());
        let (probed, candidates) = step_candidates(plan_step, &self.frame, relation);
        for index in candidates {
            let mark = self.frame.mark();
            let matched =
                self.frame
                    .match_literal(self.plan, step + 1, literal, relation.fact_ref(index));
            if matched {
                if probed {
                    telemetry::bump(telemetry::Counter::ProbeHits);
                }
                self.join(step + 1);
            } else if probed {
                telemetry::bump(telemetry::Counter::ProbeMisses);
            }
            self.frame.undo(mark);
            if matched && exists_only {
                telemetry::bump(telemetry::Counter::ExistenceShortcuts);
                break;
            }
        }
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
