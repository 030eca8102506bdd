//! Bottom-up semi-naive fixpoint evaluation of CQL programs.
//!
//! The evaluator implements the rule-application semantics of Section 2: a
//! derivation picks one fact per body literal, forms the conjunction of the
//! rule's constraints with the equalities induced by the chosen facts, checks
//! satisfiability, and projects onto the head variables (quantifier
//! elimination) to obtain a new constraint fact.  Newly derived facts that
//! are subsumed by known facts are discarded, as in Tables 1 and 2 of the
//! paper.
//!
//! Ground facts and ground bindings are handled on a fast path that avoids
//! Fourier–Motzkin work entirely, so programs whose evaluation computes only
//! ground facts (Theorem 4.4) evaluate with ordinary Datalog-like cost.
//!
//! There is one way to join: every (rule × delta-position) body, and every
//! join a DRed retraction needs, is compiled once per evaluator into a
//! static [`JoinPlan`](crate::plan::JoinPlan) and executed by a single
//! recursive executor over the explicit stable/delta/pending partition of
//! [`Relation`], probing the per-position hash indexes with the values bound
//! so far and falling back to a window scan only where a constraint-fact
//! match left the planned probe column without a value.  The independent
//! reference the production path is tested against is [`crate::naive`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::time::Instant;

use pcs_telemetry as telemetry;

use pcs_constraints::{Atom, CmpOp, Conjunction, LinearExpr, Rational, Var};
use pcs_lang::{Literal, Pred, Program, Query, Rule, Symbol, Term};

use crate::database::{Database, UpdateBatch};
use crate::fact::{Binding, Fact};
use crate::limits::{EvalLimits, Termination};
use crate::plan::{compile_plans, PlanStep, ProgramPlans, SelectivityHints};
use crate::relation::{FactRef, InsertOutcome, Relation, Window};
use crate::stats::{DerivationRecord, EvalStats, IterationStats};
use crate::value::Value;

/// Options controlling an evaluation.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Resource limits.
    pub limits: EvalLimits,
    /// When `true`, every derivation is recorded in the statistics
    /// (needed to regenerate Tables 1 and 2; expensive for large workloads).
    pub trace: bool,
    /// Number of worker threads for the derivation rounds inside each
    /// iteration.  `1` evaluates on the calling thread through the exact
    /// sequential code path; larger values shard the
    /// (rule × delta-position × delta-fact) work of every iteration across a
    /// scoped worker pool whose thread-local buffers are merged in
    /// deterministic (rule, delta-position, delta-fact) order, so the
    /// computed relations, statistics, and termination are identical to the
    /// sequential evaluation.  Defaults to the machine's available
    /// parallelism; the `PCS_EVAL_THREADS` environment variable overrides
    /// the default.
    pub threads: usize,
    /// Minimum per-iteration derivation work (delta candidates summed over
    /// all rules and delta positions) before a multi-thread evaluation
    /// actually shards the round across the worker pool; narrower rounds
    /// run on the calling thread, since spawning workers would cost more
    /// than the round itself.  Purely a scheduling knob — the results are
    /// identical either way.  Defaults to [`MIN_PARALLEL_ROUND_WORK`]; set
    /// to `0` to shard every round.
    pub min_parallel_work: usize,
    /// When `true`, the optimizer prunes rules the static analyzer proves
    /// dead (unsatisfiable constraints, provably empty body predicates)
    /// before rewriting.  Purely an optimization knob — dead rules derive
    /// nothing, so the computed answers are identical either way (the
    /// property `tests/analysis_differential.rs` checks).  Off by default.
    pub prune_dead: bool,
    /// Analyzer-derived per-position selectivity classes consumed by the
    /// plan compiler (see [`SelectivityHints`]).  Empty by default — the
    /// planner then falls back to the purely structural most-bound-first
    /// order; `Optimizer::optimize()` fills the hints from the converged
    /// constraint analysis.
    pub hints: SelectivityHints,
    /// When `true`, this evaluator records phase spans (plan-compile,
    /// fixpoint, resume, retract) and per-iteration wall time into the
    /// process-wide `pcs-telemetry` registry.  Purely observational — the
    /// computed relations, the non-timing statistics, and the termination
    /// are identical either way (the property
    /// `tests/telemetry_differential.rs` checks).  Defaults to the
    /// process-wide `PCS_TELEMETRY` setting (`off` unless set to `on` or
    /// `trace`).  The deep join-loop counters (index probes, probe
    /// hits/misses, subsumption checks, FM satisfiability calls) are gated
    /// on the global mode alone, so flipping only this flag affects spans
    /// and iteration timing.
    pub telemetry: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            limits: EvalLimits::default(),
            trace: false,
            threads: threads_from_env(),
            min_parallel_work: MIN_PARALLEL_ROUND_WORK,
            prune_dead: false,
            hints: SelectivityHints::default(),
            telemetry: pcs_telemetry::enabled(),
        }
    }
}

/// Default for [`EvalOptions::min_parallel_work`]: rounds with fewer total
/// delta candidates than this evaluate on the calling thread even when a
/// worker pool is configured, because per-iteration thread spawning would
/// dominate such narrow rounds (e.g. the magic Fibonacci programs derive a
/// handful of facts per iteration across hundreds of iterations).
pub const MIN_PARALLEL_ROUND_WORK: usize = 256;

/// Recognized values of the `PCS_EVAL_THREADS` worker-count override.
fn parse_threads_setting(value: &str) -> Option<usize> {
    value.parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Reads the `PCS_EVAL_THREADS` environment variable — the only one the
/// evaluator consults.  A positive integer selects that many evaluation
/// worker threads; unset falls back to the machine's available parallelism,
/// and so does an unrecognized value, but with a visible warning on stderr:
/// a misspelled `PCS_EVAL_THREADS=two` must not silently select the default.
fn threads_from_env() -> usize {
    let default = || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    match std::env::var("PCS_EVAL_THREADS") {
        Ok(raw) => {
            let value = raw.trim();
            parse_threads_setting(value).unwrap_or_else(|| {
                eprintln!(
                    "warning: ignoring invalid PCS_EVAL_THREADS={value:?}: expected a positive thread count"
                );
                default()
            })
        }
        Err(_) => default(),
    }
}

impl EvalOptions {
    /// Options with an iteration cap and tracing enabled.
    pub fn traced(max_iterations: usize) -> Self {
        EvalOptions {
            limits: EvalLimits::capped(max_iterations),
            trace: true,
            ..EvalOptions::default()
        }
    }

    /// Returns these options with the given number of evaluation worker
    /// threads (clamped to at least one; `1` selects the exact sequential
    /// code path regardless of the environment).
    pub fn with_threads(self, threads: usize) -> Self {
        EvalOptions {
            threads: threads.max(1),
            ..self
        }
    }

    /// Returns these options with the given sharding threshold (see
    /// [`EvalOptions::min_parallel_work`]); `0` shards every round through
    /// the worker pool, however narrow.
    pub fn with_min_parallel_work(self, min_parallel_work: usize) -> Self {
        EvalOptions {
            min_parallel_work,
            ..self
        }
    }

    /// Returns these options with analyzer-driven dead-rule pruning switched
    /// on or off (see [`EvalOptions::prune_dead`]).
    pub fn with_prune_dead(self, prune_dead: bool) -> Self {
        EvalOptions { prune_dead, ..self }
    }

    /// Returns these options with the given analyzer-derived selectivity
    /// hints for the plan compiler (see [`EvalOptions::hints`]).
    pub fn with_hints(self, hints: SelectivityHints) -> Self {
        EvalOptions { hints, ..self }
    }

    /// Returns these options with phase spans and per-iteration wall-time
    /// recording switched on or off regardless of the process-wide
    /// `PCS_TELEMETRY` setting (see [`EvalOptions::telemetry`]).
    pub fn with_telemetry(self, telemetry: bool) -> Self {
        EvalOptions { telemetry, ..self }
    }
}

/// The result of a bottom-up evaluation.
#[derive(Debug)]
pub struct EvalResult {
    /// The computed relations, per predicate (EDB relations included).
    pub relations: BTreeMap<Pred, Relation>,
    /// Evaluation statistics.
    pub stats: EvalStats,
    /// Why the evaluation stopped.
    pub termination: Termination,
}

impl EvalResult {
    /// The facts computed for a predicate, materialized in insertion order.
    pub fn facts_for(&self, pred: &Pred) -> Vec<Fact> {
        self.relations
            .get(pred)
            .map(Relation::to_facts)
            .unwrap_or_default()
    }

    /// Number of facts computed for a predicate.
    pub fn count_for(&self, pred: &Pred) -> usize {
        self.relations.get(pred).map_or(0, Relation::len)
    }

    /// Total number of facts across all predicates.
    pub fn total_facts(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Deterministic estimate of the bytes held by the fact storage across
    /// all relations (see `Relation::approx_fact_bytes`).
    pub fn approx_fact_bytes(&self) -> usize {
        self.relations
            .values()
            .map(Relation::approx_fact_bytes)
            .sum()
    }

    /// The answers to a query: facts for the query literal's predicate that
    /// are compatible with its ground arguments and variable-repetition
    /// pattern, and satisfiable together with the query's side constraints.
    ///
    /// This is the single query entry point — ground-argument filtering,
    /// repeated variables (`?- q(X, X)`), and side constraints
    /// (`?- q(X, Y), X <= 3`) are all handled here.  The query is expected
    /// to have exactly one literal (the shape [`pcs_lang::parse_query`]
    /// produces for interactive queries; multi-literal queries are rewritten
    /// to a single query predicate before evaluation); extra literals are
    /// ignored, and a query with no literals has no answers.
    pub fn answers(&self, query: &Query) -> Vec<Fact> {
        let Some(literal) = query.literals.first() else {
            return Vec::new();
        };
        self.facts_for(&literal.predicate)
            .into_iter()
            .filter(|fact| fact_matches_pattern(fact, literal, &query.constraint))
            .collect()
    }

    /// Facts for the predicate of `query` that are compatible with its ground
    /// arguments (the "answers" to the query).
    #[deprecated(since = "0.1.0", note = "use `answers(&Query::new(literal))` instead")]
    pub fn answers_to(&self, query: &Literal) -> Vec<Fact> {
        self.answers(&Query::new(query.clone()))
    }

    /// Like `answers_to`, but additionally requires the side constraints
    /// `side` (over the query literal's variables) to be satisfiable
    /// together with the fact.
    #[deprecated(
        since = "0.1.0",
        note = "use `answers(&Query::with_constraint(vec![literal], side))` instead"
    )]
    pub fn answers_to_constrained(&self, query: &Literal, side: &Conjunction) -> Vec<Fact> {
        self.answers(&Query::with_constraint(vec![query.clone()], side.clone()))
    }

    /// Returns `true` if every computed fact is ground.
    pub fn only_ground_facts(&self) -> bool {
        self.relations
            .values()
            .all(|r| r.constraint_fact_count() == 0)
    }
}

/// Decides whether `fact` is compatible with the ground arguments and the
/// variable-repetition pattern of `query`.
///
/// A ground query constant against a free fact position is accepted only if
/// the fact's residual constraint is satisfiable with that position pinned to
/// the constant — `?- q(5)` must not match a fact constrained to `$1 <= 3`.
/// A query variable occurring more than once (`?- q(X, X)`) requires all its
/// positions to be able to hold one common value: equal ground values, or a
/// satisfiable conjunction of position equalities over the free slots.
/// Side constraints over the query variables (`side`) are rewritten onto the
/// fact's positions and conjoined before the final satisfiability check.
fn fact_matches_pattern(fact: &Fact, query: &Literal, side: &Conjunction) -> bool {
    if fact.arity() != query.arity() {
        return false;
    }
    let mut constraint = fact.constraint().clone();
    // A free position can hold a symbol only when the residual constraint
    // does not restrict it to numbers.
    let free_accepts_sym = |slot: usize| !fact.constraint().contains_var(&Var::position(slot));
    // Per query variable: the ground value some occurrence is bound to (if
    // any) and the 1-based free slots its occurrences cover.
    #[derive(Default)]
    struct VarGroup {
        value: Option<Value>,
        slots: Vec<usize>,
    }
    let mut groups: BTreeMap<&Var, VarGroup> = BTreeMap::new();
    // Equalities induced by expression arguments (`?- q(X + 1)`), kept
    // aside until the groups are complete so their variables can be
    // rewritten onto the fact's positions alongside the side constraints.
    let mut expr_atoms: Vec<Atom> = Vec::new();
    for (i, (binding, term)) in fact.bindings().iter().zip(&query.args).enumerate() {
        let slot = i + 1;
        match term {
            Term::Sym(s) => match binding {
                Binding::Bound(Value::Sym(fs)) if fs == s => {}
                Binding::Free => {
                    if !free_accepts_sym(slot) {
                        return false;
                    }
                }
                _ => return false,
            },
            Term::Num(n) => match binding {
                Binding::Bound(v) if v.as_num() == Some(*n) => {}
                Binding::Free => constraint.push(Atom::var_eq(Var::position(slot), *n)),
                _ => return false,
            },
            Term::Var(x) => {
                let group = groups.entry(x).or_default();
                match binding {
                    Binding::Bound(value) => match &group.value {
                        Some(existing) if existing != value => return false,
                        _ => group.value = Some(value.clone()),
                    },
                    Binding::Free => group.slots.push(slot),
                }
            }
            // An arithmetic expression argument must equal the fact's value
            // at this position; a symbol can never satisfy arithmetic.
            Term::Expr(e) => match binding {
                Binding::Bound(v) => match v.as_num() {
                    Some(n) => expr_atoms.push(Atom::compare(
                        e.clone(),
                        CmpOp::Eq,
                        LinearExpr::constant(n),
                    )),
                    None => return false,
                },
                Binding::Free => expr_atoms.push(Atom::compare(
                    e.clone(),
                    CmpOp::Eq,
                    LinearExpr::var(Var::position(slot)),
                )),
            },
        }
    }
    for group in groups.values() {
        match &group.value {
            Some(v) => match v.as_num() {
                // Pin every free slot of the group to the number.
                Some(n) => {
                    for &slot in &group.slots {
                        constraint.push(Atom::var_eq(Var::position(slot), n));
                    }
                }
                // Every free slot of the group must be able to hold the
                // symbol.
                None => {
                    if !group.slots.iter().all(|&slot| free_accepts_sym(slot)) {
                        return false;
                    }
                }
            },
            // No ground occurrence: the free slots must agree pairwise.
            None => {
                for pair in group.slots.windows(2) {
                    constraint.push(Atom::compare(
                        LinearExpr::var(Var::position(pair[0])),
                        CmpOp::Eq,
                        LinearExpr::var(Var::position(pair[1])),
                    ));
                }
            }
        }
    }
    // Rewrite the expression-argument equalities and the side constraints
    // onto the fact's positions: a query variable bound to a number
    // substitutes as a constant, one covering a free slot substitutes as
    // that slot's position variable, and one bound to a symbol cannot
    // appear in arithmetic at all.  Variables the query literal's
    // non-expression arguments do not mention stay as they are
    // (existential), linked to the rest through the conjoined atoms — so
    // `?- q(X + 1), X >= 100` pins the fact's value to `>= 101` even
    // though `X` itself covers no position.
    for atom in expr_atoms.iter().chain(side.atoms()) {
        let mut current = atom.clone();
        for var in atom.vars() {
            if let Some(group) = groups.get(var) {
                match (&group.value, group.slots.first()) {
                    (Some(v), _) => match v.as_num() {
                        Some(n) => current = current.substitute(var, &LinearExpr::constant(n)),
                        None => return false,
                    },
                    (None, Some(&slot)) => {
                        current = current.substitute(var, &LinearExpr::var(Var::position(slot)));
                    }
                    (None, None) => {}
                }
            }
        }
        constraint.push(current);
    }
    telemetry::bump(telemetry::Counter::FmSatCalls);
    constraint.is_satisfiable()
}

/// A partially constructed derivation: symbolic bindings, ground numeric
/// bindings, a residual conjunction over not-yet-ground variables, and a
/// monotone counter for naming join variables.
#[derive(Clone)]
struct PartialMatch {
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
    fn start(rule: &Rule) -> Self {
        PartialMatch {
            sym: BTreeMap::new(),
            num: BTreeMap::new(),
            extra: rule.constraint.clone(),
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
    fn resolve(&mut self) -> bool {
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
    fn is_consistent(&self) -> bool {
        telemetry::bump(telemetry::Counter::FmSatCalls);
        self.extra.is_satisfiable()
    }
}

/// The bottom-up semi-naive evaluator.
pub struct Evaluator {
    program: Program,
    options: EvalOptions,
    /// The static join plans of every rule, compiled once per evaluator.
    plans: ProgramPlans,
}

impl Evaluator {
    /// Creates an evaluator for a program (which is flattened internally).
    /// Every join the evaluator can run — the (rule × delta-position) round
    /// bodies and the DRed over-deletion and re-derivation joins — is
    /// compiled into a validated static [`crate::plan::JoinPlan`] here, once.
    pub fn new(program: &Program, options: EvalOptions) -> Self {
        let program = program.flattened();
        let plans = {
            let _span = telemetry::span_if(options.telemetry, telemetry::Phase::PlanCompile);
            compile_plans(&program, &options.hints)
        };
        Evaluator {
            program,
            options,
            plans,
        }
    }

    /// Creates an evaluator with default options.
    pub fn with_defaults(program: &Program) -> Self {
        Evaluator::new(program, EvalOptions::default())
    }

    /// The (flattened) program being evaluated.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Runs the evaluation against a database.
    pub fn evaluate(&self, db: &Database) -> EvalResult {
        self.run_fixpoint(Start::Scratch(db), 0)
    }

    /// Re-enters the semi-naive fixpoint on an already-materialized set of
    /// relations, with `updates` as the seed delta.
    ///
    /// `relations` is the `relations` map of a *completed* evaluation of the
    /// same program (typically a previous [`EvalResult`]); every stored fact
    /// is treated as stable, the update facts that are not subsumed by the
    /// materialization become the first delta, and the fixpoint proceeds
    /// exactly as if the updates had been derived by a regular iteration.
    /// Empty-body rules do not re-fire (their facts are already in the
    /// materialization), so the resumed result stores the same facts as
    /// evaluating base + updates from scratch — the property
    /// `tests/resume_differential.rs` pins down across every rewriting
    /// strategy.
    ///
    /// Resuming from a partial materialization (one that stopped on a
    /// resource limit rather than a fixpoint) is not supported: derivations
    /// the interrupted run never attempted are not replayed.
    pub fn resume(&self, relations: BTreeMap<Pred, Relation>, updates: Vec<Fact>) -> EvalResult {
        self.apply_impl(relations, Vec::new(), updates, &Database::new(), false)
    }

    /// Applies a mixed [`UpdateBatch`] to an already-materialized set of
    /// relations in a *single* incremental pass: the retractions run the
    /// DRed-style delete/re-derive phases of [`Self::retract`], the
    /// insertions join the re-derivation delta, and one resumed semi-naive
    /// fixpoint propagates both together — instead of the separate retract
    /// and resume passes (each with its own fixpoint) the batch would
    /// otherwise cost.
    ///
    /// Semantics are retracts-then-inserts, matching [`UpdateBatch`]:
    /// `surviving_edb` must be the extensional database after the
    /// retractions but *without* the insertions (they are seeded as delta
    /// facts directly).  The result stores the same facts as evaluating
    /// `surviving_edb` + inserts from scratch — the property
    /// `tests/resume_differential.rs` pins down for mixed batches.
    ///
    /// A batch with no retracts degenerates to [`Self::resume`]; one with no
    /// inserts degenerates to [`Self::retract`] (including its stats shape).
    pub fn apply(
        &self,
        relations: BTreeMap<Pred, Relation>,
        batch: UpdateBatch,
        surviving_edb: &Database,
    ) -> EvalResult {
        let retracted = !batch.retracts.is_empty();
        self.apply_impl(
            relations,
            batch.retracts,
            batch.inserts,
            surviving_edb,
            retracted,
        )
    }

    /// Incrementally retracts facts from an already-materialized set of
    /// relations (DRed-style delete/re-derive), re-entering the shared
    /// semi-naive fixpoint for the propagation phase.
    ///
    /// `relations` is the `relations` map of a *completed* evaluation of the
    /// same program; `deletions` are the facts to retract (matched against
    /// the stored facts by [`Fact::equivalent`], so a re-phrased constraint
    /// fact still names the stored fact it denotes); `surviving_edb` is the
    /// extensional database *after* the deletions — the caller's source of
    /// truth for the base facts, needed to resurrect EDB facts that a
    /// retracted constraint fact subsumed at seed time and that were
    /// therefore never stored.
    ///
    /// Three phases:
    ///
    /// 1. **Over-deletion** — the transitive closure of support: starting
    ///    from the stored facts equivalent to the deletions, every stored
    ///    fact with a one-step derivation consuming an already-deleted fact
    ///    (joined along the rule's over-deletion plan against the full
    ///    original materialization, so derivations touching several deleted
    ///    facts are found) is removed as well.
    /// 2. **Re-derivation round** — for every rule whose head predicate lost
    ///    facts: empty-body rules re-fire, and body rules re-join over the
    ///    survivors along their pinned plan, with the head pinned to each
    ///    removed ground fact (the unpinned full-rule plan is the fallback
    ///    when a removed fact is a proper constraint fact).  Alternative
    ///    derivations re-insert exactly the over-deleted facts that are
    ///    still derivable; surviving EDB facts of the affected predicates
    ///    are re-inserted first, resurrecting anything a retracted
    ///    subsuming fact had swallowed.
    /// 3. **Propagation** — the re-inserted facts become the delta of a
    ///    resumed run of the semi-naive fixpoint, which re-derives the
    ///    downstream cone exactly as an insertion batch would.
    ///
    /// The result stores the same facts as evaluating the surviving EDB from
    /// scratch — the property `tests/resume_differential.rs` pins down for
    /// arbitrary interleavings of inserts and retracts.  Like
    /// [`Self::resume`], retracting from a *partial* materialization (one
    /// that stopped on a resource limit) is not supported.
    ///
    /// Limits: the re-derivation round and the resumed fixpoint enforce
    /// [`EvalLimits`] per fact, exactly like a regular evaluation, against
    /// *one shared* derivation budget (the resumed fixpoint is pre-charged
    /// with the re-derivation round's spending, so a retraction cannot
    /// overshoot `max_derivations`).  The over-deletion joins are
    /// deliberately *exempt* from
    /// `max_derivations` and do not appear in the statistics: an
    /// over-deletion stopped halfway would leave facts whose support is
    /// gone still stored — an unsound state — and its work is already
    /// bounded by the support structure of the completed materialization
    /// being retracted from.
    pub fn retract(
        &self,
        relations: BTreeMap<Pred, Relation>,
        deletions: Vec<Fact>,
        surviving_edb: &Database,
    ) -> EvalResult {
        self.apply_impl(relations, deletions, Vec::new(), surviving_edb, true)
    }

    /// The shared incremental-update engine behind [`Self::resume`],
    /// [`Self::retract`], and [`Self::apply`]: DRed phases 1–2 for the
    /// deletions, insertions seeded into the pending segment alongside the
    /// re-derived facts, then one resumed fixpoint propagating the combined
    /// delta.  `mark_retracted` controls whether the result carries the
    /// retraction stats shape (the leading re-derivation iteration and the
    /// `retracted`/`removed_facts` fields).
    fn apply_impl(
        &self,
        mut relations: BTreeMap<Pred, Relation>,
        deletions: Vec<Fact>,
        inserts: Vec<Fact>,
        surviving_edb: &Database,
        mark_retracted: bool,
    ) -> EvalResult {
        let _phase_span = telemetry::span_if(
            self.options.telemetry,
            if mark_retracted {
                telemetry::Phase::Retract
            } else {
                telemetry::Phase::Resume
            },
        );
        for pred in self.program.all_predicates() {
            relations.entry(pred).or_default();
        }
        for relation in relations.values_mut() {
            relation.seal();
        }

        // Phase 1: transitive over-deletion.  `removed` collects the stored
        // fact indices to drop; the frontier of each round holds the facts
        // newly marked in the previous round.  Joins read the full original
        // materialization (removal is deferred), so a derivation consuming
        // several deleted facts still propagates.
        let mut removed: BTreeMap<Pred, BTreeSet<usize>> = BTreeMap::new();
        let mut frontier: Vec<Fact> = Vec::new();
        for deletion in &deletions {
            if let Some(relation) = relations.get(deletion.predicate()) {
                if let Some(index) = relation.find_equivalent(deletion) {
                    if removed
                        .entry(deletion.predicate().clone())
                        .or_default()
                        .insert(index)
                    {
                        frontier.push(relation.fact_at(index));
                    }
                }
            }
        }
        while !frontier.is_empty() {
            let mut by_pred: BTreeMap<&Pred, Vec<&Fact>> = BTreeMap::new();
            for fact in &frontier {
                by_pred.entry(fact.predicate()).or_default().push(fact);
            }
            let mut next: Vec<Fact> = Vec::new();
            for (rule_index, rule) in self.program.rules().iter().enumerate() {
                for consumed in 0..rule.body.len() {
                    let Some(deleted_here) = by_pred.get(&rule.body[consumed].predicate) else {
                        continue;
                    };
                    let steps = &self
                        .plans
                        .overdelete_plan(rule_index, consumed)
                        .expect("every body position has an over-deletion plan")
                        .steps;
                    for deleted in deleted_here {
                        for head in
                            overdelete_derivations(rule, consumed, steps, deleted, &relations)
                        {
                            let Some(relation) = relations.get(head.predicate()) else {
                                continue;
                            };
                            let Some(index) = relation.find_equivalent(&head) else {
                                continue;
                            };
                            if removed
                                .entry(head.predicate().clone())
                                .or_default()
                                .insert(index)
                            {
                                next.push(relation.fact_at(index));
                            }
                        }
                    }
                }
            }
            frontier = next;
        }

        // The removed facts themselves (in stored order) drive the pinned
        // re-derivation targets below; collect them before the indices go
        // stale.
        let mut removed_facts: BTreeMap<Pred, Vec<Fact>> = BTreeMap::new();
        for (pred, indices) in &removed {
            let relation = &relations[pred];
            removed_facts
                .entry(pred.clone())
                .or_default()
                .extend(indices.iter().map(|&index| relation.fact_at(index)));
        }
        let mut removed_total = 0;
        for (pred, indices) in &removed {
            removed_total += relations
                .get_mut(pred)
                .expect("marked relations exist")
                .remove_indices(indices);
        }

        // The batch insertions land in the pending segment next to whatever
        // phase 2 re-derives: invisible to the re-derivation joins (which
        // read the sealed windows), they join the combined delta at the
        // phase-3 advance, so retracts and inserts share one resumed
        // fixpoint.
        for fact in inserts {
            relations
                .entry(fact.predicate().clone())
                .or_default()
                .insert(fact);
        }

        // Phase 2: resurrection and the re-derivation round.  Everything
        // inserted here lands in the pending segment and becomes the delta
        // of the resumed fixpoint.
        let mut rederive_stats = IterationStats::default();
        let mut totals = EvalTotals {
            derivations: 0,
            facts: relations.values().map(Relation::len).sum(),
        };
        let mut hit_limit = None;
        if removed_total > 0 {
            for pred in removed_facts.keys() {
                for fact in surviving_edb.facts_for(pred) {
                    relations
                        .get_mut(pred)
                        .expect("affected relations exist")
                        .insert(fact.clone());
                }
            }
            let mut tasks: Vec<RoundTask<'_>> = Vec::new();
            for (rule_index, rule) in self.program.rules().iter().enumerate() {
                let Some(targets) = removed_facts.get(&rule.head.predicate) else {
                    continue;
                };
                let label = rule_label(rule, rule_index);
                if rule.body.is_empty() {
                    tasks.push(RoundTask {
                        rule,
                        label,
                        kind: TaskKind::Seed,
                    });
                } else if targets.iter().any(|target| !target.is_ground()) {
                    // A removed proper constraint fact could cover facts a
                    // pinned join would miss: fall back to the full join.
                    let plan = self
                        .plans
                        .full_plan(rule_index)
                        .expect("every rule with a body has a full plan");
                    tasks.push(RoundTask {
                        rule,
                        label,
                        kind: TaskKind::Pinned {
                            steps: &plan.steps,
                            start: PartialMatch::start(rule),
                        },
                    });
                } else {
                    let plan = self
                        .plans
                        .pinned_plan(rule_index)
                        .expect("every rule with a body has a pinned plan");
                    for target in targets {
                        let Some(start) = match_literal(
                            &PartialMatch::start(rule),
                            &rule.head,
                            FactRef::Stored(target),
                        ) else {
                            continue;
                        };
                        tasks.push(RoundTask {
                            rule,
                            label: label.clone(),
                            kind: TaskKind::Pinned {
                                steps: &plan.steps,
                                start,
                            },
                        });
                    }
                }
            }
            let work: usize = tasks
                .iter()
                .map(|task| match &task.kind {
                    TaskKind::Pinned { steps, .. } => relations
                        .get(&task.rule.body[steps[0].literal].predicate)
                        .map_or(0, |r| r.window_range(Window::Known).len()),
                    _ => 1,
                })
                .sum();
            let threads = self.options.threads.max(1);
            let pool = (threads > 1 && work >= self.options.min_parallel_work).then_some(threads);
            hit_limit = run_and_absorb(
                &tasks,
                pool,
                &self.options,
                &mut relations,
                &mut rederive_stats,
                &mut totals,
            );
        }

        // Phase 3: the resurrected and re-derived facts become the delta of
        // the resumed semi-naive fixpoint (empty delta = one quiescent
        // iteration confirming the fixpoint).
        for relation in relations.values_mut() {
            relation.advance();
        }
        if let Some(limit) = hit_limit {
            let stats = EvalStats {
                iterations: vec![rederive_stats],
                resumed: true,
                retracted: mark_retracted,
                removed_facts: removed_total,
                ..EvalStats::default()
            };
            telemetry::flush_thread();
            return Evaluator::finalize(relations, stats, limit);
        }
        let mut result = self.run_fixpoint(Start::Resume(relations), rederive_stats.derivations);
        if mark_retracted {
            result.stats.iterations.insert(0, rederive_stats);
            result.stats.retracted = true;
            result.stats.removed_facts = removed_total;
        }
        result
    }

    /// Seeds one relation per program/EDB predicate with the database facts.
    fn seed_relations(&self, db: &Database) -> BTreeMap<Pred, Relation> {
        let mut relations: BTreeMap<Pred, Relation> = BTreeMap::new();
        for pred in self.program.all_predicates() {
            relations.entry(pred).or_default();
        }
        for fact in db.all_facts() {
            relations
                .entry(fact.predicate().clone())
                .or_default()
                .insert(fact.clone());
        }
        relations
    }

    fn finalize(
        relations: BTreeMap<Pred, Relation>,
        mut stats: EvalStats,
        termination: Termination,
    ) -> EvalResult {
        stats.facts_per_predicate = relations
            .iter()
            .map(|(p, r)| (p.clone(), r.len()))
            .collect();
        stats.constraint_facts = relations
            .values()
            .map(Relation::constraint_fact_count)
            .sum();
        EvalResult {
            relations,
            stats,
            termination,
        }
    }

    /// The semi-naive fixpoint.
    ///
    /// Every iteration is decomposed into an ordered list of derivation
    /// [`RoundTask`]s that only *read* the relations: joins see exactly the
    /// facts visible at the iteration boundary (pending insertions are
    /// invisible to every [`Window`]), so the tasks can run in any order —
    /// including concurrently on a scoped worker pool when
    /// [`EvalOptions::threads`] is greater than one.  The derived facts are
    /// then absorbed strictly in task order, which makes the parallel
    /// evaluation bit-for-bit identical to the sequential one: subsumption
    /// outcomes, statistics, and termination depend only on the absorb
    /// order.
    ///
    /// A [`Start::Scratch`] evaluation seeds the relations from a database
    /// and opens with a naive round (every initial fact is delta, empty-body
    /// rules fire).  A [`Start::Resume`] evaluation receives relations whose
    /// stable segment is a completed materialization and whose delta is the
    /// freshly inserted update facts; it opens directly with a semi-naive
    /// round over that delta.
    ///
    /// `spent_derivations` pre-charges the derivation budget: a retraction's
    /// re-derivation round has already spent that many derivations against
    /// `max_derivations`, and the resumed fixpoint must not grant the cap a
    /// second time (the count is *not* reflected in the returned iteration
    /// statistics — the caller owns that round's stats).
    fn run_fixpoint(&self, start: Start<'_>, spent_derivations: usize) -> EvalResult {
        let limits = self.options.limits;
        let threads = self.options.threads.max(1);
        let resumed = matches!(start, Start::Resume(_));
        // A resumed run's wall time is already covered by the enclosing
        // resume/retract span recorded in `apply_impl`.
        let _phase_span = telemetry::span_if(
            self.options.telemetry && !resumed,
            telemetry::Phase::Fixpoint,
        );
        let mut relations = match start {
            Start::Scratch(db) => {
                let mut relations = self.seed_relations(db);
                // The EDB facts form the first delta; stable starts empty,
                // so the iteration-0 round is the naive round over the
                // initial facts.
                for relation in relations.values_mut() {
                    relation.advance();
                }
                relations
            }
            Start::Resume(relations) => relations,
        };

        let mut stats = EvalStats {
            resumed,
            ..EvalStats::default()
        };
        let mut totals = EvalTotals {
            derivations: spent_derivations,
            facts: relations.values().map(Relation::len).sum(),
        };
        let termination;
        let mut iteration = 0usize;
        loop {
            if iteration >= limits.max_iterations {
                termination = Termination::IterationLimit;
                break;
            }
            if totals.facts >= limits.max_facts {
                termination = Termination::FactLimit;
                break;
            }
            let iter_start = self.options.telemetry.then(Instant::now);
            let mut iter_stats = IterationStats {
                delta_facts: relations
                    .values()
                    .map(|r| r.window_range(Window::Delta).len())
                    .sum(),
                ..IterationStats::default()
            };

            // A resumed run's first round is already semi-naive: the seed
            // facts fired (and the naive round ran) when the materialization
            // it resumes from was first computed.
            let naive_round = iteration == 0 && !resumed;
            let (mut tasks, round_work) = self.round_tasks(naive_round, &relations);
            // Shard only rounds wide enough to amortize spawning the worker
            // pool; narrow rounds run on the calling thread with the exact
            // same results (the absorb order is the task order either way).
            let parallel = threads > 1 && round_work >= self.options.min_parallel_work;
            if parallel {
                tasks = chunk_tasks(tasks, threads);
            }
            let hit_limit = run_and_absorb(
                &tasks,
                parallel.then_some(threads),
                &self.options,
                &mut relations,
                &mut iter_stats,
                &mut totals,
            );

            let new_facts = iter_stats.new_facts;
            if let Some(started) = iter_start {
                iter_stats.wall_nanos =
                    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
            stats.iterations.push(iter_stats);
            for relation in relations.values_mut() {
                relation.advance();
            }
            iteration += 1;

            if let Some(limit) = hit_limit {
                termination = limit;
                break;
            }
            if new_facts == 0 {
                termination = Termination::Fixpoint;
                break;
            }
        }
        telemetry::flush_thread();
        Evaluator::finalize(relations, stats, termination)
    }

    /// Builds the ordered derivation tasks of one iteration, one per
    /// (rule, delta-position), plus an estimate of the round's width (total
    /// delta candidates) used to decide whether sharding is worthwhile.
    ///
    /// Tasks are emitted in (rule, delta-position) order, the exact order
    /// the sequential evaluator visits the work, so absorbing the task
    /// buffers in task order reproduces the sequential insertion sequence.
    fn round_tasks(
        &self,
        naive_round: bool,
        relations: &BTreeMap<Pred, Relation>,
    ) -> (Vec<RoundTask<'_>>, usize) {
        let mut tasks = Vec::new();
        let mut work = 0usize;
        for (rule_index, rule) in self.program.rules().iter().enumerate() {
            let label = rule_label(rule, rule_index);
            if rule.body.is_empty() {
                // Facts and constraint facts fire only in the naive round
                // (never in a resumed run, whose materialization already
                // holds them).
                if naive_round {
                    work += 1;
                    tasks.push(RoundTask {
                        rule,
                        label,
                        kind: TaskKind::Seed,
                    });
                }
                continue;
            }
            for delta_pos in 0..rule.body.len() {
                let has_delta = relations
                    .get(&rule.body[delta_pos].predicate)
                    .is_some_and(|r| !r.delta_is_empty());
                if !has_delta {
                    continue;
                }
                let plan = self
                    .plans
                    .plan(rule_index, delta_pos)
                    .expect("every body position has a round plan");
                let candidates = delta_candidates(rule, &plan.steps[0], relations);
                if candidates.is_empty() {
                    continue;
                }
                work += candidates.len();
                tasks.push(RoundTask {
                    rule,
                    label: label.clone(),
                    kind: TaskKind::Planned {
                        steps: &plan.steps,
                        candidates,
                    },
                });
            }
        }
        (tasks, work)
    }
}

/// The display label of a rule in derivation records: its own label, or its
/// 1-based index in the program.
fn rule_label(rule: &Rule, rule_index: usize) -> String {
    rule.label
        .clone()
        .unwrap_or_else(|| format!("rule{}", rule_index + 1))
}

/// Splits the delta-candidate list of every planned task into at most
/// `threads × TASK_CHUNKS_PER_THREAD` chunks, for load balancing across the
/// worker pool.  The chunk boundaries cannot affect results: the chunks of
/// one task stay adjacent, so the merged absorb order is unchanged.
fn chunk_tasks(tasks: Vec<RoundTask<'_>>, threads: usize) -> Vec<RoundTask<'_>> {
    let mut out = Vec::with_capacity(tasks.len());
    for task in tasks {
        let TaskKind::Planned { steps, candidates } = &task.kind else {
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
                rule: task.rule,
                label: task.label.clone(),
                kind: TaskKind::Planned {
                    steps,
                    candidates: slice.to_vec(),
                },
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

/// One unit of derivation work inside an iteration.  Tasks only read the
/// relations; their buffers are absorbed in task order at the barrier.
struct RoundTask<'a> {
    rule: &'a Rule,
    /// The rule's display label for derivation records.
    label: String,
    kind: TaskKind<'a>,
}

/// What a [`RoundTask`] joins.  The steps are borrowed from the evaluator's
/// precompiled [`ProgramPlans`]: the literal order, the per-literal probe
/// column, and the existence-shortcut flags were all fixed at
/// plan-compilation time.
enum TaskKind<'a> {
    /// An empty-body rule (fact or constraint fact), fired in iteration 0.
    Seed,
    /// One semi-naive round body: the steps of this (rule × delta-position)
    /// plan and the chunk of delta-window fact indices (into the delta
    /// literal's relation) this task covers.
    Planned {
        steps: &'a [PlanStep],
        candidates: Vec<usize>,
    },
    /// A retraction re-derivation join over the sealed survivor relations:
    /// the rule's pinned plan, starting from a partial match whose head
    /// bindings were pinned to an over-deleted target fact — or the rule's
    /// full plan, starting from an empty match.
    Pinned {
        steps: &'a [PlanStep],
        start: PartialMatch,
    },
}

/// How a fixpoint run begins.
enum Start<'a> {
    /// Seed the relations from a database and open with a naive round.
    Scratch(&'a Database),
    /// Continue from a materialization whose delta is the update facts
    /// (prepared by [`Evaluator::resume`]); open with a semi-naive round.
    Resume(BTreeMap<Pred, Relation>),
}

/// Runs the tasks of one round — on the calling thread, or on a worker pool
/// of `pool` threads — and absorbs their derivations strictly in task order,
/// stopping at the first limit hit.  Tasks only read the relations and
/// pending insertions are invisible to every [`Window`], so the sequential
/// path (which interleaves running and absorbing) and the pool (which runs
/// everything first) absorb the exact same sequence.
///
/// No task generates more than the derivation budget left in `totals`:
/// anything beyond it is guaranteed to be discarded by the in-order
/// absorption, so a single round cannot buffer unboundedly past
/// `max_derivations`.
fn run_and_absorb(
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
            &task.label,
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

/// Runs one task to completion, collecting at most `cap` derived facts.
fn run_task(task: &RoundTask<'_>, relations: &BTreeMap<Pred, Relation>, cap: usize) -> Vec<Fact> {
    let mut derived = Vec::new();
    let rule = task.rule;
    match &task.kind {
        TaskKind::Seed => finish_derivation(rule, PartialMatch::start(rule), &mut derived),
        TaskKind::Planned { steps, candidates } => {
            let literal = &rule.body[steps[0].literal];
            let Some(relation) = relations.get(&literal.predicate) else {
                return derived;
            };
            let start = PartialMatch::start(rule);
            for &index in candidates {
                if derived.len() >= cap {
                    break;
                }
                if let Some(next) = match_literal(&start, literal, relation.fact_ref(index)) {
                    join(rule, steps, 1, next, relations, &mut derived, cap);
                }
            }
        }
        TaskKind::Pinned { steps, start } => {
            join(rule, steps, 0, start.clone(), relations, &mut derived, cap);
        }
    }
    derived
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
) -> Vec<Vec<Fact>> {
    let workers = threads.min(tasks.len());
    let cursor = AtomicUsize::new(0);
    let progress = RoundProgress::new(tasks.len());
    let collected: Vec<(usize, Vec<Fact>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, Vec<Fact>)> = Vec::new();
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
    let mut buffers: Vec<Vec<Fact>> = Vec::new();
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
struct EvalTotals {
    /// Derivations absorbed so far (across all iterations).
    derivations: usize,
    /// Facts currently stored across all relations.
    facts: usize,
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
    derived: Vec<Fact>,
    rule_label: &str,
    trace: bool,
    limits: &EvalLimits,
    relations: &mut BTreeMap<Pred, Relation>,
    iter_stats: &mut IterationStats,
    totals: &mut EvalTotals,
) -> Option<Termination> {
    for fact in derived {
        totals.derivations += 1;
        iter_stats.derivations += 1;
        let rendered = trace.then(|| fact.to_string());
        let outcome = relations
            .entry(fact.predicate().clone())
            .or_default()
            .insert(fact);
        let is_new = outcome == InsertOutcome::Added;
        if is_new {
            iter_stats.new_facts += 1;
            totals.facts += 1;
        } else {
            iter_stats.subsumed += 1;
        }
        if let Some(fact) = rendered {
            iter_stats.records.push(DerivationRecord {
                rule: rule_label.to_string(),
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

/// The head facts of every derivation of `rule` that consumes `deleted` at
/// body position `consumed` and — along `steps`, the rule's over-deletion
/// plan for that position — arbitrary stored facts (the full sealed
/// materialization, removed facts included) at the other positions: the
/// one-step support propagation of the DRed over-deletion phase.
fn overdelete_derivations(
    rule: &Rule,
    consumed: usize,
    steps: &[PlanStep],
    deleted: &Fact,
    relations: &BTreeMap<Pred, Relation>,
) -> Vec<Fact> {
    let mut derived = Vec::new();
    if let Some(pm) = match_literal(
        &PartialMatch::start(rule),
        &rule.body[consumed],
        FactRef::Stored(deleted),
    ) {
        join(rule, steps, 0, pm, relations, &mut derived, usize::MAX);
    }
    derived
}

/// The concrete [`Value`] a term resolves to under a partial match, if the
/// match determines one: constants resolve to themselves, variables through
/// the match's bindings, and linear expressions when every variable has a
/// numeric binding.  A variable bound only through a matched constraint-fact
/// interval (not to a concrete value) does *not* resolve.
fn term_value(pm: &PartialMatch, term: &Term) -> Option<Value> {
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

/// The statically planned probe of `step`, resolved against a partial match:
/// the probe column and the concrete value the match determines for it.
/// `None` when the plan chose no column, or when an earlier constraint-fact
/// match left the chosen column without a concrete value — the step then
/// scans its window.
fn resolved_probe(step: &PlanStep, literal: &Literal, pm: &PartialMatch) -> Option<(usize, Value)> {
    let pos = step.probe?;
    term_value(pm, &literal.args[pos]).map(|value| (pos, value))
}

/// The delta-window fact indices the first (delta) step of a round plan can
/// match, in the exact order the join visits them: the planned probe column
/// (a constant of the literal; the partial match is still empty at step 0)
/// probes the relation's hash index, and a literal with no bound argument
/// falls back to scanning the delta window.
///
/// This is the sharding axis of a parallel round: the candidate list is
/// chunked across tasks, and concatenating the per-chunk results in order
/// reproduces the sequential derivation sequence.
fn delta_candidates(
    rule: &Rule,
    step: &PlanStep,
    relations: &BTreeMap<Pred, Relation>,
) -> Vec<usize> {
    let literal = &rule.body[step.literal];
    let Some(relation) = relations.get(&literal.predicate) else {
        return Vec::new();
    };
    match resolved_probe(step, literal, &PartialMatch::start(rule)) {
        Some((pos, value)) => {
            telemetry::bump(telemetry::Counter::IndexProbes);
            relation.probe_indices(step.window, pos, &value).collect()
        }
        None => relation.window_range(step.window).collect(),
    }
}

/// The one join executor: recursively joins the body literals of `rule`
/// along a precompiled plan from `step` onwards, collecting the facts of
/// every completed derivation into `derived` until `cap` facts have been
/// collected.  Round tasks enter at step 1 (step 0, the delta literal, is
/// enumerated by [`delta_candidates`]); the DRed joins enter at step 0 with
/// a partial match that already carries their seed bindings.
///
/// The probe column of every step was fixed at plan-compilation time; if a
/// constraint-fact match left that column without a concrete value at run
/// time, the step falls back to scanning its window.  A step the plan marked
/// as an existence check stops at its first match — guarded to the case
/// where every argument resolves to a concrete value and the relation holds
/// no constraint facts, in which ground deduplication guarantees at most one
/// matching row anyway, so the shortcut saves the rest of the scan without
/// changing any statistics.  Those two run-time guards are what makes a
/// static plan safe for every input, constraint facts included.
fn join(
    rule: &Rule,
    steps: &[PlanStep],
    step: usize,
    pm: PartialMatch,
    relations: &BTreeMap<Pred, Relation>,
    derived: &mut Vec<Fact>,
    cap: usize,
) {
    if derived.len() >= cap {
        return;
    }
    let Some(plan_step) = steps.get(step) else {
        finish_derivation(rule, pm, derived);
        return;
    };
    let literal = &rule.body[plan_step.literal];
    let Some(relation) = relations.get(&literal.predicate) else {
        return;
    };
    let exists_only = plan_step.existence
        && relation.constraint_fact_count() == 0
        && literal.args.iter().all(|t| term_value(&pm, t).is_some());
    match resolved_probe(plan_step, literal, &pm) {
        Some((pos, value)) => {
            telemetry::bump(telemetry::Counter::IndexProbes);
            for fact in relation.probe(plan_step.window, pos, &value) {
                if let Some(next) = match_literal(&pm, literal, fact) {
                    telemetry::bump(telemetry::Counter::ProbeHits);
                    join(rule, steps, step + 1, next, relations, derived, cap);
                    if exists_only {
                        telemetry::bump(telemetry::Counter::ExistenceShortcuts);
                        break;
                    }
                } else {
                    telemetry::bump(telemetry::Counter::ProbeMisses);
                }
            }
        }
        None => {
            for fact in relation.window_refs(plan_step.window) {
                if let Some(next) = match_literal(&pm, literal, fact) {
                    join(rule, steps, step + 1, next, relations, derived, cap);
                    if exists_only {
                        telemetry::bump(telemetry::Counter::ExistenceShortcuts);
                        break;
                    }
                }
            }
        }
    }
}

/// Completes a derivation: checks consistency, builds the head fact, and
/// records it.
fn finish_derivation(rule: &Rule, mut pm: PartialMatch, derived: &mut Vec<Fact>) {
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
fn match_literal(pm: &PartialMatch, literal: &Literal, fact: FactRef<'_>) -> Option<PartialMatch> {
    match fact {
        FactRef::Ground { row, .. } => match_ground_row(pm, literal, row),
        FactRef::Stored(fact) => match_stored_fact(pm, literal, fact),
    }
}

/// The ground fast path of [`match_literal`]: every position holds a value.
fn match_ground_row(pm: &PartialMatch, literal: &Literal, row: &[Value]) -> Option<PartialMatch> {
    if row.len() != literal.arity() {
        return None;
    }
    let mut pm = pm.clone();
    for (term, value) in literal.args.iter().zip(row) {
        match value.as_num() {
            None => {
                let sym = value.as_sym().expect("non-numeric value is a symbol");
                match term {
                    Term::Sym(s) => {
                        if s != sym {
                            return None;
                        }
                    }
                    Term::Var(x) => {
                        if !pm.bind_sym(x, sym) {
                            return None;
                        }
                    }
                    Term::Num(_) | Term::Expr(_) => return None,
                }
            }
            Some(n) => match term {
                Term::Sym(_) => return None,
                Term::Num(k) => {
                    if *k != n {
                        return None;
                    }
                }
                Term::Var(x) => {
                    if !pm.bind_num(x, n) {
                        return None;
                    }
                }
                Term::Expr(e) => {
                    if !pm.add_atom(Atom::compare(e.clone(), CmpOp::Eq, LinearExpr::constant(n))) {
                        return None;
                    }
                }
            },
        }
    }
    // Propagate the new bindings into the residual constraint right away,
    // exactly as the stored-fact path does: an atom that just became
    // trivially false prunes the partial match *before* the join enumerates
    // candidates for the next body literal.
    if !pm.resolve() {
        return None;
    }
    Some(pm)
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
        match binding {
            Binding::Bound(bound) => match bound.as_num() {
                None => {
                    let sym = bound.as_sym().expect("non-numeric value is a symbol");
                    match term {
                        Term::Sym(s) => {
                            if s != sym {
                                return None;
                            }
                        }
                        Term::Var(x) => {
                            if !pm.bind_sym(x, sym) {
                                return None;
                            }
                        }
                        Term::Num(_) | Term::Expr(_) => return None,
                    }
                }
                Some(value) => match term {
                    Term::Sym(_) => return None,
                    Term::Num(n) => {
                        if *n != value {
                            return None;
                        }
                    }
                    Term::Var(x) => {
                        if !pm.bind_num(x, value) {
                            return None;
                        }
                    }
                    Term::Expr(e) => {
                        if !pm.add_atom(Atom::compare(
                            e.clone(),
                            CmpOp::Eq,
                            LinearExpr::constant(value),
                        )) {
                            return None;
                        }
                    }
                },
            },
            Binding::Free => {
                let fresh = position_vars[i]
                    .clone()
                    .expect("free positions have fresh variables");
                match term {
                    Term::Sym(_) => return None,
                    Term::Num(n) => {
                        if !pm.add_atom(Atom::var_eq(fresh, *n)) {
                            return None;
                        }
                    }
                    Term::Var(x) => {
                        if pm.sym.contains_key(x) {
                            return None;
                        }
                        if !pm.add_atom(Atom::compare(
                            LinearExpr::var(x.clone()),
                            CmpOp::Eq,
                            LinearExpr::var(fresh),
                        )) {
                            return None;
                        }
                    }
                    Term::Expr(e) => {
                        if !pm.add_atom(Atom::compare(e.clone(), CmpOp::Eq, LinearExpr::var(fresh)))
                        {
                            return None;
                        }
                    }
                }
            }
        }
    }
    if !pm.resolve() {
        return None;
    }
    Some(pm)
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
    use super::*;
    use pcs_lang::parse_program;

    fn eval(source: &str, db: &Database) -> EvalResult {
        let program = parse_program(source).unwrap();
        Evaluator::new(&program, EvalOptions::default()).evaluate(db)
    }

    #[test]
    fn thread_setting_recognizes_positive_counts_only() {
        assert_eq!(parse_threads_setting("4"), Some(4));
        assert_eq!(parse_threads_setting("0"), None);
        assert_eq!(parse_threads_setting("two"), None);
        assert_eq!(parse_threads_setting(""), None);
    }

    #[test]
    fn transitive_closure_over_ground_edb() {
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let result = eval(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
            &db,
        );
        assert!(result.termination.is_fixpoint());
        assert_eq!(result.count_for(&Pred::new("path")), 6);
        assert!(result.only_ground_facts());
    }

    #[test]
    fn constraints_prune_derivations() {
        let mut db = Database::new();
        for i in 0..10 {
            db.add_ground("n", vec![Value::num(i)]);
        }
        let result = eval("small(X) :- n(X), X <= 3.", &db);
        assert_eq!(result.count_for(&Pred::new("small")), 4);
    }

    #[test]
    fn arithmetic_in_heads_and_bodies() {
        let mut db = Database::new();
        db.add_ground("start", vec![Value::num(0)]);
        // count up to 5 by adding 1
        let result = eval(
            "upto(X) :- start(X).\n\
             upto(Y) :- upto(X), X <= 4, Y = X + 1.",
            &db,
        );
        assert_eq!(result.count_for(&Pred::new("upto")), 6);
        assert!(result.only_ground_facts());
        assert!(result.termination.is_fixpoint());
    }

    #[test]
    fn symbolic_constants_join_correctly() {
        let mut db = Database::new();
        db.add_ground(
            "singleleg",
            vec![
                Value::sym("madison"),
                Value::sym("chicago"),
                Value::num(50),
                Value::num(100),
            ],
        );
        db.add_ground(
            "singleleg",
            vec![
                Value::sym("chicago"),
                Value::sym("seattle"),
                Value::num(230),
                Value::num(120),
            ],
        );
        let result = eval(
            "flight(S, D, T, C) :- singleleg(S, D, T, C), T > 0, C > 0.\n\
             flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), \
                 T = T1 + T2 + 30, C = C1 + C2.",
            &db,
        );
        assert!(result.termination.is_fixpoint());
        // Two direct legs plus the madison->seattle composition.
        assert_eq!(result.count_for(&Pred::new("flight")), 3);
        let composed = result
            .facts_for(&Pred::new("flight"))
            .iter()
            .find(|f| {
                f.ground_values()
                    .is_some_and(|v| v[0] == Value::sym("madison") && v[1] == Value::sym("seattle"))
            })
            .cloned()
            .expect("composed flight exists");
        let values = composed.ground_values().unwrap();
        assert_eq!(values[2], Value::num(50 + 230 + 30));
        assert_eq!(values[3], Value::num(100 + 120));
    }

    #[test]
    fn constraint_facts_are_computed_when_needed() {
        // p(X; X <= 10) as a constraint fact in the program; q selects from it.
        let db = Database::new();
        let result = eval(
            "p(X) :- X <= 10.\n\
             q(X) :- p(X), X >= 8.",
            &db,
        );
        assert!(result.termination.is_fixpoint());
        assert_eq!(result.count_for(&Pred::new("p")), 1);
        assert_eq!(result.count_for(&Pred::new("q")), 1);
        assert!(!result.only_ground_facts());
        let q_fact = &result.facts_for(&Pred::new("q"))[0];
        assert!(q_fact
            .constraint()
            .implies_atom(&Atom::var_ge(Var::position(1), 8)));
        assert!(q_fact
            .constraint()
            .implies_atom(&Atom::var_le(Var::position(1), 10)));
    }

    #[test]
    fn subsumed_derivations_are_counted_not_stored() {
        let mut db = Database::new();
        db.add_ground("e", vec![Value::num(1), Value::num(2)]);
        db.add_ground("e", vec![Value::num(2), Value::num(1)]);
        // Both rules derive p(1) and p(2); duplicates are subsumed.
        let result = eval("p(X) :- e(X, Y).\np(X) :- e(Y, X).", &db);
        assert_eq!(result.count_for(&Pred::new("p")), 2);
        assert!(result.stats.total_subsumed() >= 2);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let db = Database::new();
        // A non-terminating counter.
        let program = parse_program("nat(0).\nnat(Y) :- nat(X), Y = X + 1.").unwrap();
        let result = Evaluator::new(&program, EvalOptions::traced(5)).evaluate(&db);
        assert_eq!(result.termination, Termination::IterationLimit);
        assert_eq!(result.stats.iterations.len(), 5);
        assert!(result.count_for(&Pred::new("nat")) >= 4);
    }

    #[test]
    fn answers_to_query_filter_by_constants() {
        let mut db = Database::new();
        db.add_ground("r", vec![Value::sym("a"), Value::num(1)]);
        db.add_ground("r", vec![Value::sym("b"), Value::num(2)]);
        let result = eval("s(X, Y) :- r(X, Y).", &db);
        let query = Literal::new("s", vec![Term::sym("a"), Term::var("Y")]);
        let answers = result.answers(&Query::new(query));
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn answers_respect_constraint_fact_bounds() {
        // Regression: `?- q(5)` must not match a fact constrained to
        // `$1 <= 3`; the old pattern matcher accepted any ground constant
        // against a free position without consulting the constraint.
        let db = Database::new();
        let result = eval("q(X) :- X <= 3.", &db);
        assert_eq!(result.count_for(&Pred::new("q")), 1);
        let inside = Literal::new("q", vec![Term::num(2)]);
        let outside = Literal::new("q", vec![Term::num(5)]);
        assert_eq!(result.answers(&Query::new(inside)).len(), 1);
        assert_eq!(result.answers(&Query::new(outside)).len(), 0);
        // A symbol can never inhabit a numerically constrained position.
        let symbolic = Literal::new("q", vec![Term::sym("madison")]);
        assert_eq!(result.answers(&Query::new(symbolic)).len(), 0);
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

    /// Renders relations sorted so runs can be compared fact-for-fact.
    fn rendered(result: &EvalResult) -> Vec<(String, Vec<String>)> {
        result
            .relations
            .iter()
            .map(|(pred, relation)| {
                let mut facts: Vec<String> = relation.iter().map(|f| f.to_string()).collect();
                facts.sort();
                (pred.to_string(), facts)
            })
            .collect()
    }

    /// Asserts two evaluations are bit-for-bit identical: relations,
    /// termination, and every per-iteration statistic.
    fn assert_identical_runs(a: &EvalResult, b: &EvalResult) {
        assert_eq!(a.termination, b.termination);
        assert_eq!(rendered(a), rendered(b));
        assert_eq!(a.stats.iterations.len(), b.stats.iterations.len());
        for (i, (x, y)) in a
            .stats
            .iterations
            .iter()
            .zip(&b.stats.iterations)
            .enumerate()
        {
            assert_eq!(x.derivations, y.derivations, "derivations at iteration {i}");
            assert_eq!(x.new_facts, y.new_facts, "new facts at iteration {i}");
            assert_eq!(x.subsumed, y.subsumed, "subsumed at iteration {i}");
            assert_eq!(x.delta_facts, y.delta_facts, "delta facts at iteration {i}");
        }
        assert_eq!(a.stats.facts_per_predicate, b.stats.facts_per_predicate);
        assert_eq!(a.stats.constraint_facts, b.stats.constraint_facts);
    }

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
    fn answers_to_enforces_repeated_query_variables() {
        let mut db = Database::new();
        db.add_facts_str("r(1, 1).\nr(1, 2).\nr(a, a).\nr(a, b).")
            .unwrap();
        let result = eval("s(X, Y) :- r(X, Y).", &db);
        let answers = |src: &str| {
            let query = pcs_lang::parse_query(src).unwrap();
            result.answers(&query).len()
        };
        assert_eq!(answers("s(X, Y)"), 4);
        // Only r(1, 1) and r(a, a) repeat their argument.
        assert_eq!(answers("s(X, X)"), 2);
        assert_eq!(answers("s(1, X)"), 2);
        // Side constraints filter ground answers.
        assert_eq!(answers("s(X, Y), Y >= 2"), 1);
    }

    #[test]
    fn answers_to_repeated_variables_consult_constraint_facts() {
        let db = Database::new();
        let result = eval(
            "disjoint(X, Y) :- X <= 3, Y >= 5.\n\
             band(X, Y) :- X <= 3, Y <= 3.\n\
             half(X, Y) :- Y <= 3.",
            &db,
        );
        let answers = |src: &str| {
            let query = pcs_lang::parse_query(src).unwrap();
            result.answers(&query).len()
        };
        // $1 <= 3 and $2 >= 5 cannot hold one common value.
        assert_eq!(answers("disjoint(X, X)"), 0);
        assert_eq!(answers("disjoint(X, Y)"), 1);
        // $1 <= 3 and $2 <= 3 can (e.g. both 2).
        assert_eq!(answers("band(X, X)"), 1);
        // A constant mixed with a constrained position pins it.
        assert_eq!(answers("band(2, X)"), 1);
        assert_eq!(answers("band(5, X)"), 0);
        // Side constraints conjoin with the fact's residual constraint.
        assert_eq!(answers("band(2, X), X >= 1"), 1);
        assert_eq!(answers("band(2, X), X >= 99"), 0);
        assert_eq!(answers("disjoint(X, Y), X = Y"), 0);
        // An unconstrained position can repeat into a constrained one...
        assert_eq!(answers("half(X, X)"), 1);
        // ...and can hold a symbol, while a constrained position cannot.
        assert_eq!(answers("half(madison, X)"), 1);
        assert_eq!(answers("half(X, madison)"), 0);
    }

    #[test]
    fn answers_to_expression_arguments_pin_the_position() {
        // Regression: `Term::Expr` query arguments used to be ignored
        // entirely, so `?- s(X + 1), X >= 100.` returned every fact.
        let mut db = Database::new();
        db.add_facts_str("r(1).\nr(7).\nr(a).").unwrap();
        let result = eval("s(X) :- r(X).\nt(X) :- X <= 5.", &db);
        let answers = |src: &str| {
            let query = pcs_lang::parse_query(src).unwrap();
            result.answers(&query).len()
        };
        // ∃X. X + 1 = v holds for every numeric fact; never for a symbol.
        assert_eq!(answers("s(X + 1)"), 2);
        // Side constraints link through X even though X covers no position.
        assert_eq!(answers("s(X + 1), X >= 100"), 0);
        assert_eq!(answers("s(Y + 1), Y = 0"), 1);
        assert_eq!(answers("s(2 * Z), Z >= 3"), 1);
        // Expressions against a constrained free position conjoin with the
        // fact's residual constraint ($1 <= 5).
        assert_eq!(answers("t(W + 10), W <= -5"), 1);
        assert_eq!(answers("t(W + 10), W >= 0"), 0);
    }

    #[test]
    fn answers_to_repeated_variables_with_symbols() {
        let mut db = Database::new();
        // free($1, $2) unconstrained; capped(a, $2 <= 3).
        db.add_facts_str("free(X, Y).\ncapped(a, Y) :- Y <= 3.")
            .unwrap();
        let result = eval("f(X, Y) :- free(X, Y).\nc(X, Y) :- capped(X, Y).", &db);
        let answers = |src: &str| {
            let query = pcs_lang::parse_query(src).unwrap();
            result.answers(&query).len()
        };
        // Two unconstrained positions can share any value.
        assert_eq!(answers("f(X, X)"), 1);
        // The symbol `a` cannot repeat into the numeric position $2 <= 3.
        assert_eq!(answers("c(X, X)"), 0);
        assert_eq!(answers("c(a, X)"), 1);
        // A symbol-valued query variable cannot enter arithmetic.
        assert_eq!(answers("c(X, Y), X <= 3"), 0);
    }

    #[test]
    fn resumed_updates_match_scratch_evaluation() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).\n\
             short(X, Y) :- path(X, Y), X <= 2.",
        )
        .unwrap();
        let mut base = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            base.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let updates =
            crate::database::parse_facts("edge(4, 5).\nedge(0, 1).\nedge(9, 10).").unwrap();
        let mut full = base.clone();
        for fact in &updates {
            full.add(fact.clone());
        }
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let scratch = evaluator.evaluate(&full);
        let materialized = evaluator.evaluate(&base);
        let resumed = evaluator.resume(materialized.relations, updates.clone());
        assert!(resumed.stats.resumed && !scratch.stats.resumed);
        assert_eq!(resumed.termination, scratch.termination);
        assert_eq!(rendered(&resumed), rendered(&scratch));
        // The resumed run only re-derives what the updates reach.
        assert!(resumed.stats.total_derivations() < scratch.stats.total_derivations());
    }

    #[test]
    fn resuming_with_subsumed_updates_reaches_fixpoint_immediately() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let mut base = Database::new();
        for (a, b) in [(1, 2), (2, 3)] {
            base.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let materialized = evaluator.evaluate(&base);
        let total = materialized.total_facts();
        // Both updates are already in the materialization.
        let updates = crate::database::parse_facts("edge(1, 2).\npath(1, 3).").unwrap();
        let resumed = evaluator.resume(materialized.relations, updates);
        assert_eq!(resumed.termination, Termination::Fixpoint);
        assert_eq!(resumed.stats.total_new_facts(), 0);
        assert_eq!(resumed.total_facts(), total);
        assert_eq!(resumed.stats.iterations.len(), 1);
    }

    #[test]
    fn resumed_parallel_rounds_match_sequential_resume() {
        let mut base = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (4, 2), (1, 4)] {
            base.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let updates = crate::database::parse_facts("edge(4, 5).\nedge(5, 6).").unwrap();
        let base_options = EvalOptions::default();
        let sequential = {
            let evaluator = Evaluator::new(&program, base_options.clone().with_threads(1));
            evaluator.resume(evaluator.evaluate(&base).relations, updates.clone())
        };
        for threads in [2, 4] {
            let options = base_options
                .clone()
                .with_threads(threads)
                .with_min_parallel_work(0);
            let evaluator = Evaluator::new(&program, options);
            let parallel = evaluator.resume(evaluator.evaluate(&base).relations, updates.clone());
            assert_identical_runs(&sequential, &parallel);
        }
    }

    #[test]
    fn retracting_an_edge_matches_scratch_evaluation_of_the_surviving_edb() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let mut full = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (1, 4)] {
            full.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let deletions = crate::database::parse_facts("edge(2, 3).").unwrap();
        let mut surviving = full.clone();
        assert_eq!(surviving.remove_facts(&deletions), 1);
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let materialized = evaluator.evaluate(&full);
        let retracted = evaluator.retract(materialized.relations, deletions.clone(), &surviving);
        let scratch = evaluator.evaluate(&surviving);
        assert!(retracted.stats.retracted && !scratch.stats.retracted);
        // edge(2, 3) plus the paths that only it supported are gone.
        assert!(retracted.stats.removed_facts >= 4);
        assert_eq!(retracted.termination, scratch.termination);
        assert_eq!(rendered(&retracted), rendered(&scratch));
    }

    #[test]
    fn facts_with_alternative_derivations_survive_retraction() {
        // path(1, 3) is derivable both directly from edge(1, 3) and through
        // edge(1, 2), edge(2, 3): DRed over-deletes it, re-derivation must
        // bring it back.
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let mut full = Database::new();
        for (a, b) in [(1, 2), (2, 3), (1, 3)] {
            full.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let deletions = crate::database::parse_facts("edge(1, 3).").unwrap();
        let mut surviving = full.clone();
        surviving.remove_facts(&deletions);
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let retracted = evaluator.retract(
            evaluator.evaluate(&full).relations,
            deletions.clone(),
            &surviving,
        );
        let path = Literal::new("path", vec![Term::num(1), Term::num(3)]);
        assert_eq!(retracted.answers(&Query::new(path)).len(), 1);
        assert_eq!(
            rendered(&retracted),
            rendered(&evaluator.evaluate(&surviving))
        );
    }

    #[test]
    fn retracting_a_subsuming_fact_resurrects_subsumed_facts() {
        // The ground EDB fact b(5) is swallowed by the constraint fact at
        // seed time and never stored; retracting the constraint fact must
        // resurrect it (and its consequences).
        let program = parse_program("p(X) :- b(X).").unwrap();
        let mut full = Database::new();
        full.add_facts_str("b(X) :- X >= 0, X <= 10.\nb(5).\nb(99).")
            .unwrap();
        let deletions = crate::database::parse_facts("b(X) :- X >= 0, X <= 10.").unwrap();
        let mut surviving = full.clone();
        assert_eq!(surviving.remove_facts(&deletions), 1);
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let materialized = evaluator.evaluate(&full);
        // The subsumed ground fact is genuinely absent beforehand.
        assert_eq!(materialized.count_for(&Pred::new("b")), 2);
        let retracted = evaluator.retract(materialized.relations, deletions.clone(), &surviving);
        let scratch = evaluator.evaluate(&surviving);
        assert_eq!(rendered(&retracted), rendered(&scratch));
        assert_eq!(retracted.count_for(&Pred::new("b")), 2);
        assert_eq!(
            retracted
                .answers(&Query::new(Literal::new("p", vec![Term::num(5)])))
                .len(),
            1
        );
        assert!(retracted.termination.is_fixpoint());
    }

    #[test]
    fn retraction_shares_one_derivation_budget_across_its_phases() {
        // The re-derivation round pre-charges the resumed fixpoint's
        // budget: capping max_derivations one below a full retraction's
        // spending must stop at exactly the cap, not grant each phase the
        // cap separately.
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        // edge(0, 1) feeds the resumed phase: path(0, 3) is over-deleted
        // (its derivation passes through the removed path(1, 3)) and only
        // comes back once the re-derived path(1, 3) enters the delta.
        let mut full = Database::new();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)] {
            full.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let deletions = crate::database::parse_facts("edge(1, 3).").unwrap();
        let mut surviving = full.clone();
        surviving.remove_facts(&deletions);
        let evaluator = Evaluator::new(&program, EvalOptions::default().with_threads(1));
        let unlimited = evaluator.retract(
            evaluator.evaluate(&full).relations,
            deletions.clone(),
            &surviving,
        );
        let spent = unlimited.stats.total_derivations();
        assert!(unlimited.termination.is_fixpoint() && spent >= 2, "{spent}");
        // Both the re-derivation round and the resumed fixpoint derive
        // something in this workload, so the cap spans the phase boundary.
        assert!(unlimited.stats.iterations[0].derivations >= 1);
        assert!(spent > unlimited.stats.iterations[0].derivations);
        // Materialize the base with the *unlimited* evaluator (retraction
        // from a partial materialization is out of contract); only the
        // retraction itself runs capped.
        let materialized = evaluator.evaluate(&full);
        let capped = EvalOptions {
            limits: EvalLimits {
                max_derivations: spent - 1,
                ..EvalLimits::default()
            },
            ..EvalOptions::default().with_threads(1)
        };
        let limited = Evaluator::new(&program, capped).retract(
            materialized.relations,
            deletions.clone(),
            &surviving,
        );
        assert_eq!(limited.termination, Termination::DerivationLimit);
        assert_eq!(limited.stats.total_derivations(), spent - 1);
    }

    #[test]
    fn retracting_an_absent_fact_changes_nothing() {
        let program = parse_program("p(X) :- b(X).").unwrap();
        let mut db = Database::new();
        db.add_ground("b", vec![Value::num(1)]);
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let before = evaluator.evaluate(&db);
        let total = before.total_facts();
        let deletions = crate::database::parse_facts("b(9).").unwrap();
        let retracted = evaluator.retract(before.relations, deletions, &db);
        assert_eq!(retracted.stats.removed_facts, 0);
        assert_eq!(retracted.total_facts(), total);
        assert!(retracted.termination.is_fixpoint());
    }

    #[test]
    fn parallel_retraction_matches_the_sequential_retraction_exactly() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let mut full = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (4, 5), (1, 4), (2, 5)] {
            full.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let deletions = crate::database::parse_facts("edge(2, 3).\nedge(1, 4).").unwrap();
        let mut surviving = full.clone();
        surviving.remove_facts(&deletions);
        let base = EvalOptions::default();
        let sequential = {
            let evaluator = Evaluator::new(&program, base.clone().with_threads(1));
            evaluator.retract(
                evaluator.evaluate(&full).relations,
                deletions.clone(),
                &surviving,
            )
        };
        for threads in [2, 4] {
            let options = base.clone().with_threads(threads).with_min_parallel_work(0);
            let evaluator = Evaluator::new(&program, options);
            let parallel = evaluator.retract(
                evaluator.evaluate(&full).relations,
                deletions.clone(),
                &surviving,
            );
            assert_identical_runs(&sequential, &parallel);
        }
    }
}
