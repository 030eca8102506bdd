//! One round of derivation work: the tasks an iteration decomposes into,
//! the worker pool that runs them, the join executor they run, and the
//! deterministic in-order absorption of what they derive.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;

use pcs_telemetry as telemetry;

use pcs_lang::{Pred, Rule};

use super::matching::{Derived, Frame};
use super::EvalOptions;
use crate::fact::Fact;
use crate::limits::{EvalLimits, Termination};
use crate::plan::{JoinPlan, PlanStep};
use crate::relation::{FactRef, InsertOutcome, Relation};
use crate::stats::{DerivationRecord, IterationStats};

/// One unit of derivation work inside an iteration.  Tasks only read the
/// relations; their buffers are absorbed in task order at the barrier.
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
    /// One semi-naive round body: the chunk of delta-window fact indices
    /// (into the delta literal's relation) this task feeds to step 0.
    Delta { candidates: Vec<usize> },
    /// From the plan's entry stage.  With a `seed`, a retraction
    /// re-derivation whose head is pinned to that over-deleted fact; without
    /// one, a rule's full re-derivation join, or the step-less plan of a
    /// body-less rule (a fact or constraint fact, fired in iteration 0).
    Entry { seed: Option<&'a Fact> },
}

/// Splits the delta-candidate list of every delta task into at most
/// `threads × TASK_CHUNKS_PER_THREAD` chunks, for load balancing across the
/// worker pool.  The chunk boundaries cannot affect results: the chunks of
/// one task stay adjacent, so the merged absorb order is unchanged.
pub(super) fn chunk_tasks(tasks: Vec<RoundTask<'_>>, threads: usize) -> Vec<RoundTask<'_>> {
    let mut out = Vec::with_capacity(tasks.len());
    for task in tasks {
        let TaskKind::Delta { candidates } = &task.kind else {
            out.push(task);
            continue;
        };
        let chunk = candidates
            .len()
            .div_ceil(threads * TASK_CHUNKS_PER_THREAD)
            .max(1);
        if chunk >= candidates.len() {
            out.push(task);
            continue;
        }
        for slice in candidates.chunks(chunk) {
            out.push(RoundTask {
                kind: TaskKind::Delta {
                    candidates: slice.to_vec(),
                },
                ..task
            });
        }
    }
    out
}

/// Ceiling on how many chunks the delta candidates of one
/// (rule, delta-position) pair are split into, per worker thread.  More
/// chunks balance skewed candidate workloads better at a small bookkeeping
/// cost; the value does not affect results, only scheduling.
const TASK_CHUNKS_PER_THREAD: usize = 4;

/// Runs the tasks of one round — on the calling thread, or on a worker pool
/// of `pool` threads — and absorbs their derivations strictly in task order,
/// stopping at the first limit hit.  Tasks only read the relations and
/// pending insertions are invisible to every [`Window`](crate::Window), so
/// the sequential path (which interleaves running and absorbing) and the
/// pool (which runs everything first) absorb the exact same sequence.
///
/// No task generates more than the derivation budget left in `totals`:
/// anything beyond it is guaranteed to be discarded by the in-order
/// absorption, so a single round cannot buffer unboundedly past
/// `max_derivations`.
pub(super) fn run_and_absorb(
    tasks: &[RoundTask<'_>],
    pool: Option<usize>,
    options: &EvalOptions,
    relations: &mut BTreeMap<Pred, Relation>,
    iter_stats: &mut IterationStats,
    totals: &mut EvalTotals,
) -> Option<Termination> {
    let budget = options
        .limits
        .max_derivations
        .saturating_sub(totals.derivations);
    let mut buffers = match pool {
        Some(threads) if tasks.len() > 1 => {
            Some(run_tasks_parallel(tasks, relations, budget, threads).into_iter())
        }
        _ => None,
    };
    for task in tasks {
        let derived = match &mut buffers {
            Some(buffers) => buffers.next().expect("one buffer per task"),
            None => run_task(task, relations, budget),
        };
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

/// Runs the tasks of one iteration on a scoped worker pool and returns one
/// buffer per task, positionally.
///
/// Workers pull task ordinals from a shared cursor (so tasks start in
/// order), accumulate into thread-local buffers, and the buffers are merged
/// back in task order — scheduling therefore cannot influence the absorb
/// sequence.  A worker about to start a task first consults the completed
/// *prefix* of the task list: once the tasks before some point have already
/// derived `budget` facts, every later task's buffer is guaranteed to be
/// discarded by the in-order absorption, so it is skipped outright.
fn run_tasks_parallel(
    tasks: &[RoundTask<'_>],
    relations: &BTreeMap<Pred, Relation>,
    budget: usize,
    threads: usize,
) -> Vec<Vec<Derived>> {
    let workers = threads.min(tasks.len());
    let cursor = AtomicUsize::new(0);
    let progress = RoundProgress::new(tasks.len());
    let collected: Vec<(usize, Vec<Derived>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, Vec<Derived>)> = Vec::new();
                    loop {
                        let ordinal = cursor.fetch_add(1, AtomicOrdering::Relaxed);
                        let Some(task) = tasks.get(ordinal) else {
                            break;
                        };
                        let derived = if progress.prefix_derivations() >= budget {
                            Vec::new()
                        } else {
                            run_task(task, relations, budget)
                        };
                        progress.record(ordinal, derived.len());
                        local.push((ordinal, derived));
                    }
                    // Fold this worker's thread-local telemetry counters into
                    // the shared registry before the thread exits.
                    telemetry::flush_thread();
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                // Re-raise a worker panic with its original payload so that
                // e.g. the descriptive rational-overflow messages survive
                // the thread boundary.
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut buffers: Vec<Vec<Derived>> = Vec::new();
    buffers.resize_with(tasks.len(), Vec::new);
    for (ordinal, derived) in collected {
        buffers[ordinal] = derived;
    }
    buffers
}

/// Tracks, across workers, how many facts the completed contiguous *prefix*
/// of the task list has derived.  The prefix count is monotone and
/// independent of scheduling, so gating on it never skips a task whose
/// buffer could still be absorbed.
struct RoundProgress {
    inner: Mutex<RoundProgressInner>,
}

struct RoundProgressInner {
    /// Per-task derivation counts; `None` until the task finishes.
    counts: Vec<Option<usize>>,
    /// Number of contiguous finished tasks from the front.
    prefix_tasks: usize,
    /// Total derivations of that finished prefix.
    prefix_derivations: usize,
}

impl RoundProgress {
    fn new(tasks: usize) -> Self {
        RoundProgress {
            inner: Mutex::new(RoundProgressInner {
                counts: vec![None; tasks],
                prefix_tasks: 0,
                prefix_derivations: 0,
            }),
        }
    }

    fn record(&self, ordinal: usize, derivations: usize) {
        let mut inner = self.inner.lock().expect("round progress poisoned");
        inner.counts[ordinal] = Some(derivations);
        while let Some(Some(count)) = inner.counts.get(inner.prefix_tasks).copied() {
            inner.prefix_derivations += count;
            inner.prefix_tasks += 1;
        }
    }

    fn prefix_derivations(&self) -> usize {
        self.inner
            .lock()
            .expect("round progress poisoned")
            .prefix_derivations
    }
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
///
/// This is the sharding axis of a parallel round: the candidate list is
/// chunked across tasks, and concatenating the per-chunk results in order
/// reproduces the sequential derivation sequence.
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

    /// Runs a round plan over a chunk of its delta candidates (step 0 is
    /// enumerated by [`delta_candidates`], so it counts no probe hits).
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
    use super::super::test_support::assert_identical_runs;
    use super::super::{EvalOptions, Evaluator};
    use crate::database::Database;
    use crate::limits::{EvalLimits, Termination};
    use crate::value::Value;
    use pcs_lang::parse_program;

    #[test]
    fn parallel_rounds_match_the_sequential_evaluation_exactly() {
        // Ground joins plus constraint facts, so both the hash-probe path
        // and the constraint-fact tail cross the worker boundary.
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (4, 2), (1, 4), (2, 5), (5, 6)] {
            db.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let source = "seed(X) :- X >= 4, X <= 5.\n\
                      path(X, Y) :- edge(X, Y).\n\
                      path(X, Y) :- edge(X, Z), path(Z, Y).\n\
                      near(X, Y) :- path(X, Y), seed(X).";
        let program = parse_program(source).unwrap();
        let base = EvalOptions::default();
        let sequential = Evaluator::new(&program, base.clone().with_threads(1)).evaluate(&db);
        for threads in [2, 4, 7] {
            // Force sharding even though the rounds are narrow.
            let options = base.clone().with_threads(threads).with_min_parallel_work(0);
            let parallel = Evaluator::new(&program, options).evaluate(&db);
            assert_identical_runs(&sequential, &parallel);
        }
    }

    #[test]
    fn fact_limit_is_enforced_inside_an_iteration() {
        // One iteration of the cross-product rule derives 100 facts; the cap
        // must stop the round mid-iteration, not after absorbing all of it.
        let mut db = Database::new();
        for i in 0..10 {
            db.add_ground("p", vec![Value::num(i)]);
        }
        let program = parse_program("q(X, Y) :- p(X), p(Y).").unwrap();
        for threads in [1, 4] {
            let options = EvalOptions {
                limits: EvalLimits {
                    max_facts: 20,
                    ..EvalLimits::default()
                },
                ..EvalOptions::default()
            }
            .with_threads(threads)
            .with_min_parallel_work(0);
            let result = Evaluator::new(&program, options).evaluate(&db);
            assert_eq!(result.termination, Termination::FactLimit);
            assert_eq!(result.total_facts(), 20, "threads = {threads}");
        }
    }

    #[test]
    fn derivation_limit_is_enforced_inside_an_iteration() {
        let mut db = Database::new();
        for i in 0..10 {
            db.add_ground("p", vec![Value::num(i)]);
        }
        let program = parse_program("q(X, Y) :- p(X), p(Y).").unwrap();
        for threads in [1, 4] {
            let options = EvalOptions {
                limits: EvalLimits {
                    max_derivations: 13,
                    ..EvalLimits::default()
                },
                ..EvalOptions::default()
            }
            .with_threads(threads)
            .with_min_parallel_work(0);
            let result = Evaluator::new(&program, options).evaluate(&db);
            assert_eq!(result.termination, Termination::DerivationLimit);
            assert_eq!(result.stats.total_derivations(), 13, "threads = {threads}");
        }
    }

    #[test]
    fn arithmetic_overflow_in_a_worker_panics_with_its_descriptive_message() {
        // `Y := 2·X` is compiled arithmetic; doubling i128::MAX overflows
        // inside a pool worker, and the panic must reach the caller with the
        // rational layer's message, not as an anonymous join error.
        let mut db = Database::new();
        for x in [1, i128::MAX] {
            db.add_ground(
                "n",
                vec![Value::num(pcs_constraints::Rational::from_int(x))],
            );
        }
        let program = parse_program("m(Y) :- n(X), Y = X + X.").unwrap();
        for threads in [1, 4] {
            let options = EvalOptions::default()
                .with_threads(threads)
                .with_min_parallel_work(0);
            let evaluator = Evaluator::new(&program, options);
            let payload =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| evaluator.evaluate(&db)))
                    .expect_err("doubling i128::MAX overflows");
            let message = payload
                .downcast_ref::<String>()
                .expect("the rational layer panics with a formatted message");
            assert!(
                message.contains("overflowed i128"),
                "threads = {threads}: {message}"
            );
        }
    }
}
