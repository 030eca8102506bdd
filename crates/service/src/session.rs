//! Long-lived materialized query sessions.
//!
//! A [`Session`] runs one of the optimizer's rewriting pipelines once,
//! materializes the rewritten program's fixpoint against a base database,
//! and then serves two kinds of requests for the rest of its life:
//!
//! * **queries** (`?- q(...)`) answered against an immutable snapshot of the
//!   materialization — no evaluation happens on the query path at all; and
//! * **EDB updates** (`+flight(a, b, 3).`) that re-enter the semi-naive
//!   fixpoint with the inserted facts as the seed delta
//!   ([`pcs_engine::Evaluator::apply`]), touching only the part of the
//!   fixpoint the updates can reach.
//!
//! Readers and the writer never block each other for the duration of an
//! evaluation: queries clone an [`Arc`] to the current [`Snapshot`] and keep
//! using it while an update brings the writer's own replica of the
//! materialization to the next epoch; publishing it is a pointer store, and
//! the replica it replaces becomes the writer's next one (see
//! [`Session::apply`]).  Updates are serialized among themselves.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::{Duration, Instant};

use pcs_core::analysis::{analyze, ProgramAnalysis};
use pcs_core::transform::TransformError;
use pcs_core::{Optimized, Optimizer, Strategy};
use pcs_engine::{
    parse_facts, Database, EvalResult, Evaluator, Fact, FactsError, Relation, Termination,
    UpdateBatch,
};
use pcs_lang::{Literal, Pred, Program, Query, Term};
use pcs_telemetry as telemetry;

use crate::wal::Persistence;

/// Locks a mutex, recovering from poisoning.
///
/// Every mutable structure a panicking update thread could have been holding
/// is either rebuilt from scratch by the next holder (the coalescing queue,
/// whose slots the leader fills even when it unwinds; the writer's replica,
/// which a leader takes out of the lock before touching it, so a leader that
/// dies leaves none behind and the next one copies the published epoch) or
/// only ever mutated by a single non-panicking pointer store (the published
/// snapshot), so the data behind a poisoned lock is consistent and the next
/// client can proceed instead of inheriting the panic forever.
fn lock_recovered<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks an `RwLock`, recovering from poisoning (see [`lock_recovered`]).
fn read_recovered<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks an `RwLock`, recovering from poisoning (see [`lock_recovered`]).
fn write_recovered<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Errors reported by a [`Session`].
#[derive(Debug)]
pub enum SessionError {
    /// The optimizer's rewriting pipeline failed (e.g. a strategy that needs
    /// a query was given a program without one).
    Optimize(TransformError),
    /// Fact text did not parse, or contained an unsatisfiable constraint
    /// fact.
    Facts(FactsError),
    /// A base fact named a predicate that is not an EDB predicate of the
    /// program: an update on one the materialized program does not read as
    /// one, or a database to materialize under a rewriting strategy holding
    /// facts on a predicate the program defines by rules
    /// ([`Optimized::check_database`]).
    NotAnEdbPredicate(Pred),
    /// A retraction named a fact that is not in the extensional database
    /// (rendered); the whole batch is refused so a typo cannot silently
    /// retract only part of it.
    NoSuchFact(String),
    /// A query named a predicate the materialization does not hold.
    UnknownPredicate(Pred),
    /// A query shape the session does not answer from a materialization
    /// (e.g. multi-literal joins, or bindings a magic-rewritten
    /// materialization was not specialized to).
    UnsupportedQuery(String),
    /// An update arrived while the current materialization is partial (it
    /// stopped on a resource limit, not a fixpoint); resuming from a
    /// partial materialization would silently drop derivations the
    /// interrupted run never attempted.
    PartialMaterialization(Termination),
    /// The update would grow the extensional database past the session's
    /// configured fact limit; the batch is refused.
    FactLimit(usize),
    /// The session's write-ahead log could not be written; the batch was
    /// not applied (write-ahead: nothing is published that was not first
    /// logged).
    Persistence(io::Error),
    /// The thread applying this batch's coalesced group panicked before the
    /// batch got an outcome (e.g. exact arithmetic overflowed on a numeral
    /// of some batch in the group).  Nothing of the group was published.
    Abandoned,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Optimize(e) => write!(f, "optimization failed: {e}"),
            SessionError::Facts(e) => write!(f, "invalid facts: {e}"),
            SessionError::NotAnEdbPredicate(p) => write!(
                f,
                "`{p}` is not an EDB predicate, one the program reads and no rule defines \
                 (write a rule-defined predicate's facts as rules of the program, as \
                 fibonacci.pcs does with r1 and r2)"
            ),
            SessionError::NoSuchFact(fact) => write!(
                f,
                "`{fact}` is not in the extensional database; nothing was retracted"
            ),
            SessionError::UnknownPredicate(p) => {
                write!(f, "unknown predicate `{p}` in the materialization")
            }
            SessionError::UnsupportedQuery(msg) => write!(f, "unsupported query: {msg}"),
            SessionError::PartialMaterialization(termination) => write!(
                f,
                "cannot apply updates: the current materialization is partial ({termination:?}); \
                 resuming would silently drop derivations the interrupted run never attempted"
            ),
            SessionError::FactLimit(limit) => write!(
                f,
                "the update would exceed this session's fact limit ({limit} EDB facts); \
                 nothing was applied"
            ),
            SessionError::Persistence(e) => write!(
                f,
                "cannot apply updates: the write-ahead log is unwritable ({e}); \
                 nothing was applied"
            ),
            SessionError::Abandoned => write!(
                f,
                "the update was abandoned: the evaluation pass applying its group panicked; \
                 nothing was applied"
            ),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Optimize(e) => Some(e),
            SessionError::Facts(e) => Some(e),
            SessionError::Persistence(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FactsError> for SessionError {
    fn from(e: FactsError) -> Self {
        SessionError::Facts(e)
    }
}

/// One complete copy of a session's state at an epoch: the materialization,
/// and the extensional database it is the fixpoint of.
///
/// A session that has taken an update owns two: the one readers see, and
/// the writer's, which is one epoch behind between updates (see
/// [`Session::apply`]).
#[derive(Debug)]
struct Replica {
    epoch: u64,
    result: EvalResult,
    /// The extensional database as of this epoch — the multiset of base
    /// facts *before* materialization-time subsumption.  Retractions need
    /// it twice: to refuse retracting a fact that was never inserted, and
    /// to resurrect facts a retracted subsuming fact swallowed at seed
    /// time.  Living beside the materialization (rather than behind a
    /// separate lock) makes the epoch, the materialization, and the EDB
    /// commit in one atomic pointer store — which is what makes recovering
    /// a poisoned lock sound: the published triple is always consistent.
    base: Database,
    /// The coalesced batch whose application produced this epoch from the
    /// previous one (empty for a base materialization).  With
    /// `result.stats.removed_indices` and the facts `result.relations`
    /// appended, this is everything a replica one epoch behind needs to
    /// catch up without evaluating.
    batch: UpdateBatch,
}

/// An immutable view of a session's materialization at one epoch.
///
/// Cloning a snapshot is an [`Arc`] bump; the replica behind it is never
/// mutated while a snapshot of it exists (the writer only ever reclaims a
/// retired replica nobody else holds), so any number of reader threads can
/// answer queries from it while writers proceed.
#[derive(Clone, Debug)]
pub struct Snapshot {
    replica: Arc<Replica>,
}

impl Snapshot {
    /// The update epoch this snapshot belongs to (0 = the base
    /// materialization, +1 per applied update batch).
    pub fn epoch(&self) -> u64 {
        self.replica.epoch
    }

    /// The materialized evaluation result.
    pub fn result(&self) -> &EvalResult {
        &self.replica.result
    }

    /// The extensional database as of this epoch (base facts before
    /// subsumption) — what durability snapshots persist.
    pub fn base(&self) -> &Database {
        &self.replica.base
    }

    /// Answers a resolved single-literal query (with optional side
    /// constraints) against this snapshot's materialization.  An EDB
    /// predicate's relation holds only the base facts some rule body can
    /// read; [`Session::query`] answers those from [`Self::base`].
    pub fn answers(&self, query: &Query) -> Vec<Fact> {
        self.replica.result.answers(query)
    }
}

/// The mutable half of a [`Replica`], owned by the leader applying an
/// update group: level with the published epoch when acquired, then ahead of
/// it by the batches validated so far.
struct Working {
    relations: BTreeMap<Pred, Relation>,
    base: Database,
}

/// The writer's replica between updates, kept under the update lock.
enum Spare {
    /// The replica the last publish replaced: one epoch behind the published
    /// one, and possibly still held by readers that took their snapshot
    /// before the publish.
    Retired(Arc<Replica>),
    /// Level with the published epoch: a leader acquired it and published
    /// nothing (every batch it drained was refused).
    Level(Working),
}

/// The outcome of one applied [`UpdateBatch`] (insertions, retractions, or
/// a mixed batch).
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// The epoch the update produced.
    pub epoch: u64,
    /// For insert-only batches, the update facts that actually entered the
    /// delta (admitted into their relation and not subsumed by the existing
    /// materialization); zero for
    /// retract-only batches; for mixed batches, the batch's nominal
    /// insertion count.
    pub inserted: usize,
    /// Facts the DRed over-deletion phase removed from the materialization
    /// (the retracted facts plus everything that lost its last derivation);
    /// zero for insert-only batches.
    pub removed: usize,
    /// Facts the update added to the materialization: for insertions, the
    /// inserted facts plus everything the resumed fixpoint derived; for
    /// retractions, everything put back after the over-deletion —
    /// resurrected EDB facts, re-derived facts, and their consequences —
    /// so `total_facts` before − `removed` + `new_facts` = `total_facts`
    /// after.
    pub new_facts: usize,
    /// Derivations the resumed fixpoint attempted.
    pub derivations: usize,
    /// Iterations the resumed fixpoint ran.
    pub iterations: usize,
    /// Why the resumed fixpoint stopped.
    pub termination: Termination,
    /// Total facts stored after the update.
    pub total_facts: usize,
    /// Wall-clock time of the incremental evaluation pass
    /// ([`pcs_engine::Evaluator::apply`]) alone.
    pub elapsed: Duration,
    /// How many concurrently queued batches this epoch's single evaluation
    /// pass applied (server-side coalescing); `1` for a solo update.  When
    /// greater than one, the counts above describe the whole coalesced
    /// group, not this batch alone.
    pub coalesced: usize,
}

/// A point-in-time description of a session, for `.stats`-style displays.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// Current epoch.
    pub epoch: u64,
    /// Total facts stored across all relations.
    pub total_facts: usize,
    /// Stored facts that are proper constraint facts.
    pub constraint_facts: usize,
    /// Fact count per predicate, sorted by predicate.
    pub relations: Vec<(String, usize)>,
    /// Why the most recent (base or resumed) evaluation stopped.
    pub termination: Termination,
    /// The predicate holding the program's own query answers.
    pub query_pred: String,
    /// Update batches currently waiting for (or holding) the update lock,
    /// from the process-wide telemetry registry (zero when telemetry is
    /// off).
    pub update_queue_depth: i64,
    /// Epochs the last completed query's snapshot trailed the session head
    /// by, from the process-wide telemetry registry (zero when telemetry is
    /// off).
    pub epoch_lag: i64,
}

/// Holds one unit of the update-queue-depth gauge for as long as an update
/// batch is waiting for or holding the update lock.  The increment/decrement
/// pair is unconditional inside the guard so a mode flip mid-update cannot
/// wedge the gauge; entering is skipped entirely when telemetry is off.
struct QueueDepthGuard {
    armed: bool,
}

impl QueueDepthGuard {
    fn enter() -> Self {
        let armed = telemetry::enabled();
        if armed {
            telemetry::gauge_add(telemetry::Gauge::UpdateQueueDepth, 1);
        }
        QueueDepthGuard { armed }
    }
}

impl Drop for QueueDepthGuard {
    fn drop(&mut self) {
        if self.armed {
            telemetry::gauge_add(telemetry::Gauge::UpdateQueueDepth, -1);
        }
    }
}

/// A long-lived materialized query session over one optimized program.
///
/// Create one with [`Session::materialize`]; share it across threads behind
/// an [`Arc`].  Queries ([`Session::query`]) read a snapshot and never
/// evaluate; updates ([`Session::insert`]) resume the fixpoint and publish a
/// new snapshot.
pub struct Session {
    optimized: Optimized,
    /// The source program the session was materialized from (before any
    /// rewriting), kept for on-demand static analysis (`.check`).
    source: Program,
    evaluator: Evaluator,
    /// EDB predicates of the rewritten program — the only legal insertion
    /// targets.
    edb: BTreeSet<Pred>,
    /// The query predicate of the *source* program, so interactive queries
    /// phrased against it can be rerouted to the rewritten query predicate.
    original_query: Option<Literal>,
    /// The rewritten program's own query literal (where the optimizer left
    /// the program's answers).
    rewritten_query: Option<Literal>,
    /// Whether the magic rewriting specialized the materialization to the
    /// rewritten query's constants.
    magic: bool,
    /// The session's configured strategy, kept so durability snapshots can
    /// record a token that re-optimizes identically on recovery.
    strategy: Strategy,
    current: RwLock<Snapshot>,
    /// Serializes update batches; queries never take it.  The epoch lives
    /// in the published [`Snapshot`] — updates derive the next epoch from
    /// the snapshot they resumed, which the lock makes race-free.
    ///
    /// Updates that queue behind the lock do not each pay their own
    /// evaluation pass: the holder drains [`Session::queue`] and applies
    /// the waiters' batches together (see [`Session::apply`]).
    ///
    /// The lock also keeps the writer's replica between updates: `None`
    /// until the first update (a read-only session never has a second
    /// replica) and after a leader lost its replica.
    update_lock: Mutex<Option<Spare>>,
    /// Concurrently submitted batches waiting to be coalesced: each entry
    /// pairs the batch with the slot its submitter is watching.  Drained by
    /// whichever submitter wins `update_lock` (flat combining).
    queue: Mutex<VecDeque<QueuedUpdate>>,
    /// Cap on the extensional database size (`0` = unlimited); updates that
    /// would grow past it are refused with [`SessionError::FactLimit`].
    max_facts: AtomicUsize,
    /// The durability handle, attached once by the hub when the session is
    /// installed over a data directory; sessions without one persist
    /// nothing.
    persist: OnceLock<Persistence>,
}

/// One queued update batch and the slot its submitting thread will read the
/// result from.
struct QueuedUpdate {
    batch: UpdateBatch,
    slot: Arc<UpdateSlot>,
}

/// The per-batch result slot of the coalescing queue.  Filled by whichever
/// thread leads the batch's group; no condvar is needed
/// because every submitter also queues on `update_lock` and re-checks its
/// slot as soon as it acquires the lock.
#[derive(Default)]
struct UpdateSlot {
    result: Mutex<Option<Result<UpdateOutcome, SessionError>>>,
}

impl UpdateSlot {
    fn fill(&self, result: Result<UpdateOutcome, SessionError>) {
        *lock_recovered(&self.result) = Some(result);
    }

    fn take(&self) -> Option<Result<UpdateOutcome, SessionError>> {
        lock_recovered(&self.result).take()
    }
}

/// Held by a leader for the length of [`Session::lead`]: whatever way the
/// leader leaves — a panic in the evaluation included — every drained slot it
/// had not filled yet gets [`SessionError::Abandoned`], so no coalesced
/// waiter is left reading an empty slot.
struct AbandonUnfilled(Vec<Arc<UpdateSlot>>);

impl Drop for AbandonUnfilled {
    fn drop(&mut self) {
        for slot in &self.0 {
            lock_recovered(&slot.result).get_or_insert(Err(SessionError::Abandoned));
        }
    }
}

/// Whether `next` must not join a coalesced group already holding `group`:
/// a later batch retracting what the group inserts (or re-inserting what it
/// retracts) depends on the group's epoch being published first — one
/// combined retracts-then-inserts pass would reorder them.  Such a batch
/// flushes the open group and starts the next epoch.
fn conflicts(group: &UpdateBatch, next: &UpdateBatch) -> bool {
    next.retracts
        .iter()
        .any(|r| group.inserts.iter().any(|i| i.equivalent(r)))
        || next
            .inserts
            .iter()
            .any(|i| group.retracts.iter().any(|r| r.equivalent(i)))
}

/// Hands a leader a replica level with `head` to mutate: the spare one,
/// caught up if it is an epoch behind, or — when there is none, or a reader
/// still shares it — a copy of `head`.
fn acquire(spare: Option<Spare>, head: &Replica) -> Working {
    match spare {
        Some(Spare::Level(working)) => working,
        Some(Spare::Retired(retired)) => match Arc::try_unwrap(retired) {
            Ok(behind) => catch_up(behind, head),
            Err(_still_read) => copy_of(head),
        },
        None => copy_of(head),
    }
}

/// Replays onto the replica one epoch `behind` what `head`'s epoch did —
/// the batch to the EDB, the removals and appended facts to each relation —
/// without evaluating anything.
fn catch_up(behind: Replica, head: &Replica) -> Working {
    debug_assert_eq!(behind.epoch + 1, head.epoch);
    let mut relations = behind.result.relations;
    let mut base = behind.base;
    base.apply(&head.batch)
        .expect("both replicas validated this batch against the same EDB");
    for (pred, relation) in &head.result.relations {
        relations
            .entry(pred.clone())
            .or_default()
            .catch_up(head.result.stats.removed_indices.get(pred), relation);
    }
    Working { relations, base }
}

/// The one step of the update path that copies the database.
fn copy_of(head: &Replica) -> Working {
    telemetry::add(telemetry::Counter::EpochClones, 1);
    Working {
        relations: head.result.relations.clone(),
        base: head.base.clone(),
    }
}

impl Session {
    /// Optimizes the configured program and materializes it against `db`.
    ///
    /// This is the `Optimizer` → `Session` handoff: any of the rewriting
    /// strategies can back a session, and the evaluation options configured
    /// on the optimizer (limits, tracing) carry over to both the base
    /// materialization and every resumed update.  Each evaluation runs on
    /// the thread that asked for it: the materializing caller, or the leader
    /// of an update group.
    ///
    /// Under every strategy but [`Strategy::None`], a database holding base
    /// facts on a predicate the program defines by rules is refused with
    /// [`SessionError::NotAnEdbPredicate`] ([`Optimized::check_database`]).
    pub fn materialize(optimizer: &Optimizer, db: &Database) -> Result<Session, SessionError> {
        Session::materialize_at(optimizer, db, 0)
    }

    /// Like [`Session::materialize`], but numbering epochs from `epoch`
    /// instead of 0 — recovery re-materializes a replayed EDB and resumes
    /// the epoch sequence where the persisted session left off, so clients
    /// see epochs continue across a restart.
    pub fn materialize_at(
        optimizer: &Optimizer,
        db: &Database,
        epoch: u64,
    ) -> Result<Session, SessionError> {
        let original_query = optimizer
            .program()
            .query()
            .and_then(|q| q.literals.first())
            .cloned();
        let optimized = optimizer.optimize().map_err(SessionError::Optimize)?;
        optimized
            .check_database(db)
            .map_err(SessionError::NotAnEdbPredicate)?;
        let rewritten_query = optimized
            .program
            .query()
            .and_then(|q| q.literals.first())
            .cloned();
        let magic = optimized
            .program
            .rules()
            .iter()
            .any(|rule| rule.head.predicate.is_magic());
        let edb = optimized.program.edb_predicates();
        let evaluator = optimized.evaluator();
        let result = evaluator.evaluate(db);
        Ok(Session {
            optimized,
            source: optimizer.program().clone(),
            strategy: optimizer.configured_strategy().clone(),
            evaluator,
            edb,
            original_query,
            rewritten_query,
            magic,
            current: RwLock::new(Snapshot {
                replica: Arc::new(Replica {
                    epoch,
                    result,
                    base: db.clone(),
                    batch: UpdateBatch::new(),
                }),
            }),
            update_lock: Mutex::new(None),
            queue: Mutex::new(VecDeque::new()),
            max_facts: AtomicUsize::new(0),
            persist: OnceLock::new(),
        })
    }

    /// The rewritten program this session materialized.
    pub fn optimized(&self) -> &Optimized {
        &self.optimized
    }

    /// The source program the session was materialized from.
    pub fn source(&self) -> &Program {
        &self.source
    }

    /// The rewriting strategy the session was materialized with.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// Caps the extensional database size (`0` = unlimited).  Updates that
    /// would grow the EDB past the cap are refused with
    /// [`SessionError::FactLimit`].
    pub fn set_fact_limit(&self, max_facts: usize) {
        self.max_facts.store(max_facts, Ordering::Relaxed);
    }

    /// The configured EDB fact cap (`0` = unlimited).
    pub fn fact_limit(&self) -> usize {
        self.max_facts.load(Ordering::Relaxed)
    }

    /// Attaches the durability handle (write-ahead log + snapshots); at
    /// most one per session, normally done by the hub right after install
    /// or recovery.  Returns the handle back if one is already attached.
    pub fn attach_persistence(&self, persistence: Persistence) -> Result<(), Persistence> {
        self.persist.set(persistence)
    }

    /// The attached durability handle, if any.
    pub fn persistence(&self) -> Option<&Persistence> {
        self.persist.get()
    }

    /// Runs the static analyzer over the source program (safety,
    /// satisfiability, dead rules, stratification) — the shell's `.check`.
    pub fn check(&self) -> ProgramAnalysis {
        analyze(&self.source)
    }

    /// Renders the compiled join plan of every (rule × delta-position) body
    /// of this session's rewritten program, with the analyzer-derived cost
    /// annotations — the shell's `.explain`.
    pub fn explain(&self) -> Vec<String> {
        self.optimized.explain()
    }

    /// The current snapshot (cheap: one `Arc` clone under a read lock that
    /// is held only for the clone itself).
    ///
    /// A poisoned lock is recovered, not propagated: the snapshot is only
    /// ever replaced by a single pointer store of a fully built value, so
    /// whatever a panicking writer left behind is the last consistently
    /// published epoch.
    pub fn snapshot(&self) -> Snapshot {
        read_recovered(&self.current).clone()
    }

    /// Resolves an interactive query against `snapshot`'s materialization:
    /// single literal only, and queries phrased against the source program's
    /// query predicate are rerouted to the rewritten query predicate.
    fn resolve_query(&self, snapshot: &Snapshot, query: &Query) -> Result<Query, SessionError> {
        if query.literals.len() != 1 {
            return Err(SessionError::UnsupportedQuery(format!(
                "sessions answer single-literal queries from the materialization, got {}",
                query.literals.len()
            )));
        }
        let literal = &query.literals[0];
        if snapshot.result().relations.contains_key(&literal.predicate) {
            return Ok(query.clone());
        }
        // `?- cheaporshort(...)` against a rewritten program: the answers
        // live under the rewritten query predicate (the adorned one, or the
        // one a retargeted query reads).  Under magic the seed specialized
        // the materialization to the program query's own bindings, so the
        // reroute is complete only for instances of that pattern.  Where
        // the program query has a constant, the interactive query must
        // repeat it (a variable or a different constant there would
        // silently under-answer); where the program query has a variable,
        // anything goes.
        if let (Some(original), Some(rewritten)) = (&self.original_query, &self.rewritten_query) {
            if literal.predicate == original.predicate && literal.predicate != rewritten.predicate {
                if literal.arity() != rewritten.arity() {
                    return Err(SessionError::UnsupportedQuery(format!(
                        "`{}` has arity {} but the rewritten query predicate `{}` has arity {}",
                        literal.predicate,
                        literal.arity(),
                        rewritten.predicate,
                        rewritten.arity()
                    )));
                }
                for (position, (seed, asked)) in
                    rewritten.args.iter().zip(&literal.args).enumerate()
                {
                    let compatible = match seed {
                        Term::Var(_) => true,
                        bound => !self.magic || bound == asked,
                    };
                    if !compatible {
                        return Err(SessionError::UnsupportedQuery(format!(
                            "the materialization was specialized to `{rewritten}` by the magic \
                             rewriting; argument {} must be `{seed}` (got `{asked}`) — re-.load \
                             with a broader query or a non-magic strategy for ad-hoc bindings",
                            position + 1
                        )));
                    }
                }
                let mut resolved = query.clone();
                resolved.literals[0] =
                    Literal::new(rewritten.predicate.clone(), literal.args.clone());
                return Ok(resolved);
            }
        }
        Err(SessionError::UnknownPredicate(literal.predicate.clone()))
    }

    /// Answers a query against the current snapshot without evaluating.
    /// A query on an EDB predicate reads every base fact of it, admitted
    /// into its relation or not ([`Database::answers`]).
    ///
    /// Returns the resolved query (after predicate rerouting), the snapshot
    /// it was answered from, and the matching facts (cloned out so the
    /// caller does not borrow the snapshot).
    pub fn query(&self, query: &Query) -> Result<(Query, Snapshot, Vec<Fact>), SessionError> {
        let start = telemetry::enabled().then(Instant::now);
        // One read of the published snapshot serves both the predicate
        // lookup and the answer.
        let snapshot = self.snapshot();
        let resolved = self.resolve_query(&snapshot, query)?;
        let answers = if self.edb.contains(&resolved.literals[0].predicate) {
            snapshot.base().answers(&resolved)
        } else {
            snapshot.answers(&resolved)
        };
        if let Some(start) = start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            telemetry::add(telemetry::Counter::Queries, 1);
            telemetry::observe(telemetry::Hist::QueryLatency, nanos);
            // How many epochs were published while this query was running
            // against its (then-current) snapshot.
            let lag = self.snapshot().epoch().saturating_sub(snapshot.epoch());
            telemetry::gauge_set(
                telemetry::Gauge::EpochLag,
                i64::try_from(lag).unwrap_or(i64::MAX),
            );
            if nanos >= telemetry::slow_query_threshold_nanos() {
                telemetry::slow_query(&resolved.to_string(), nanos);
            }
        }
        Ok((resolved, snapshot, answers))
    }

    /// The facts of `pred` in the current snapshot: for an EDB predicate
    /// every base fact ([`Database::relation`]); for the query predicate the
    /// optimizer answers from another relation ([`Optimized::removed_query`])
    /// the facts it would hold, under its own name; else its relation's —
    /// the shell's `.facts`.  A predicate the materialization does not hold
    /// is a [`SessionError::UnknownPredicate`], as it is for a query.
    pub fn facts(&self, pred: &Pred) -> Result<Vec<Fact>, SessionError> {
        let snapshot = self.snapshot();
        if self.edb.contains(pred) {
            return Ok(snapshot.base().relation(pred).to_facts());
        }
        // The query predicate the optimizer answers from another relation:
        // its facts are that relation's answers to the listing literal.
        if let Some((removed, listing)) = self.optimized.removed_query() {
            if removed == pred {
                return Ok(snapshot
                    .answers(&Query::new(listing.clone()))
                    .into_iter()
                    .map(|fact| fact.renamed(pred.clone()))
                    .collect());
            }
        }
        if !snapshot.result().relations.contains_key(pred) {
            return Err(SessionError::UnknownPredicate(pred.clone()));
        }
        Ok(snapshot.result().facts_for(pred))
    }

    /// Applies one atomic [`UpdateBatch`] — retractions first, then
    /// insertions — in a *single* incremental pass
    /// ([`pcs_engine::Evaluator::apply`]), and publishes the resulting
    /// materialization as the next epoch.  This is the one update entry
    /// point; [`Session::insert`] and [`Session::remove`] are thin wrappers
    /// over a single-sided batch, and the shell/TCP front-ends coalesce
    /// mixed `+`/`-` line runs into one call (one epoch, one resumed
    /// fixpoint) instead of two.
    ///
    /// Refusal rules (the whole batch is refused, changing nothing):
    ///
    /// * every fact must target an EDB predicate of the materialized
    ///   program ([`SessionError::NotAnEdbPredicate`]);
    /// * every retraction must actually be in the extensional database
    ///   (matched by [`Fact::equivalent`], one occurrence per retraction) —
    ///   all-or-nothing, so a typo cannot silently retract only part of a
    ///   batch ([`SessionError::NoSuchFact`]);
    /// * updates are refused while the current materialization is partial
    ///   (stopped on a resource limit rather than a fixpoint): an
    ///   incremental pass cannot replay the derivations the interrupted run
    ///   never attempted ([`SessionError::PartialMaterialization`]).
    ///
    /// Queries keep reading the previous epoch until the update completes.
    /// An update evaluation that itself hits a limit is still published
    /// (its facts are sound, and `.stats`/[`Session::stats`] show the
    /// termination), but further updates then error until re-materialized.
    ///
    /// # Coalescing
    ///
    /// Batches submitted concurrently do not each pay their own incremental
    /// pass.  Every submitter enqueues its batch and then competes for the
    /// update lock; the winner (*leader*) drains the queue, validates each
    /// batch in arrival order against the writer's evolving EDB (so refusal
    /// semantics are exactly those of sequential application), concatenates
    /// the survivors into conflict-free groups, and runs **one** evaluation
    /// pass per group — one epoch shared by every batch in it
    /// ([`UpdateOutcome::coalesced`]).  A batch that retracts what an
    /// earlier queued batch inserts (or re-inserts what it retracts) starts
    /// a new group, preserving order-sensitive semantics.  A leader that
    /// panics (an evaluation that overflows exact arithmetic, say) fills the
    /// slots of the batches it had not answered with
    /// [`SessionError::Abandoned`] on its way out.
    ///
    /// # Replicas
    ///
    /// Publishing an epoch copies nothing.  A session that takes updates
    /// keeps two replicas of its state — materialization and EDB — and hands
    /// them back and forth: the *published* one, which readers share and
    /// nobody mutates, and the *writer's*, which the previous publish
    /// retired and which is therefore one epoch behind.  An update reclaims
    /// the retired replica ([`Arc::try_unwrap`]: the writer must be its only
    /// owner), brings it level by replaying the effects of the epoch it
    /// missed — per relation the removed indices and the appended facts
    /// ([`Relation::catch_up`]), for the EDB the batch; no joins, no second
    /// evaluation — validates and applies the drained batches to it, and
    /// publishes it with a pointer store, which retires the other replica in
    /// turn.  Every step costs what the two batches changed, not what the
    /// database holds.  Both replicas take the same removals and the same
    /// appends in the same order, so their relations stay index-identical.
    ///
    /// The one remaining copy is the fallback when there is no replica to
    /// reclaim — the session's first update, a reader still holding a
    /// snapshot of the retired replica, or a leader that lost its replica
    /// (it is taken *out* of the lock before it is touched, so a leader
    /// that unwinds or meets a write-ahead-log failure halfway never leaves
    /// a half-applied one behind): the writer then clones the published
    /// replica, counted by the `epoch_clones` telemetry counter.
    pub fn apply(&self, batch: UpdateBatch) -> Result<UpdateOutcome, SessionError> {
        for fact in batch.inserts.iter().chain(&batch.retracts) {
            if !self.edb.contains(fact.predicate()) {
                return Err(SessionError::NotAnEdbPredicate(fact.predicate().clone()));
            }
        }
        // Count this batch in the queue-depth gauge from the moment it
        // enqueues until it finishes (every exit path decrements via the
        // guard's drop).
        let _depth = QueueDepthGuard::enter();
        let slot = Arc::new(UpdateSlot::default());
        lock_recovered(&self.queue).push_back(QueuedUpdate {
            batch,
            slot: slot.clone(),
        });
        let mut spare = lock_recovered(&self.update_lock);
        if let Some(result) = slot.take() {
            // A previous leader drained our batch while we waited for the
            // lock; nothing left to do.
            drop(spare);
            return result;
        }
        // We are the leader: serve everything queued right now (our own
        // batch included).
        let drained: Vec<QueuedUpdate> = lock_recovered(&self.queue).drain(..).collect();
        self.lead(&mut spare, drained);
        drop(spare);
        slot.take().expect("the leader fills every drained slot")
    }

    /// Applies a drained run of queued batches (leader side of the
    /// coalescing protocol).  Called with `update_lock` held — `spare` is
    /// what it guards; fills every drained slot, by unwinding if need be.
    fn lead(&self, spare: &mut Option<Spare>, drained: Vec<QueuedUpdate>) {
        let _abandon = AbandonUnfilled(drained.iter().map(|q| q.slot.clone()).collect());
        let mut head = self.snapshot().replica;
        // The writer's replica, acquired for the first batch that gets as
        // far as validation.  Its EDB evolves batch by batch so refusals
        // (absent retractions, the fact cap) behave exactly as if the
        // batches had arrived one at a time.
        let mut working: Option<Working> = None;
        let mut combined = UpdateBatch::new();
        let mut group: Vec<Arc<UpdateSlot>> = Vec::new();
        // Once the write-ahead log fails nothing further may publish;
        // remember the failure and refuse the rest of the drain with it.
        let mut wal_failure: Option<(io::ErrorKind, String)> = None;
        // `Evaluator::apply` is only sound on a *completed*
        // materialization: a run that stopped on a resource limit left
        // derivations unattempted that no delta-driven pass will replay.  A
        // group published mid-drain can itself go partial, so this is
        // re-checked per batch (and after a mid-drain publish), not once per
        // drain.
        let refusal = |wal_failure: &Option<(io::ErrorKind, String)>, head: &Replica| {
            if let Some((kind, message)) = wal_failure {
                return Some(SessionError::Persistence(io::Error::new(
                    *kind,
                    message.clone(),
                )));
            }
            let termination = head.result.termination;
            (!termination.is_fixpoint())
                .then_some(SessionError::PartialMaterialization(termination))
        };
        for QueuedUpdate { batch, slot } in drained {
            if let Some(error) = refusal(&wal_failure, &head) {
                slot.fill(Err(error));
                continue;
            }
            if conflicts(&combined, &batch) {
                // The working replica holds exactly the open group's
                // effects (this batch has not touched it yet), which is
                // what the flush publishes.
                let open = working.take().expect("an open group has a replica");
                let (batch, slots) = (std::mem::take(&mut combined), std::mem::take(&mut group));
                self.flush_group(&mut head, spare, open, batch, slots, &mut wal_failure);
                if let Some(error) = refusal(&wal_failure, &head) {
                    slot.fill(Err(error));
                    continue;
                }
            }
            let replica = working.get_or_insert_with(|| acquire(spare.take(), &head));
            // The cap bounds the EDB *after* the batch: its own retractions
            // make room for its insertions (a replace-one-fact batch at the
            // cap does not grow anything).
            let limit = self.max_facts.load(Ordering::Relaxed);
            let after =
                (replica.base.len() + batch.inserts.len()).saturating_sub(batch.retracts.len());
            if limit > 0 && after > limit {
                slot.fill(Err(SessionError::FactLimit(limit)));
                continue;
            }
            // Per-batch all-or-nothing validation *and* EDB evolution in
            // one step: a refused batch (absent retraction) leaves the
            // replica untouched, inserts included.
            if let Err(fact) = replica.base.apply(&batch) {
                slot.fill(Err(SessionError::NoSuchFact(fact.to_string())));
                continue;
            }
            combined.retracts.extend(batch.retracts);
            combined.inserts.extend(batch.inserts);
            group.push(slot);
        }
        match working {
            Some(open) if !group.is_empty() => {
                self.flush_group(&mut head, spare, open, combined, group, &mut wal_failure);
            }
            // Every batch since the replica was acquired was refused, so it
            // is still level with the published epoch: keep it.
            Some(level) => *spare = Some(Spare::Level(level)),
            None => {}
        }
    }

    /// Publishes one coalesced group as one epoch: write-ahead log first,
    /// then a single incremental evaluation pass over the writer's replica,
    /// then the atomic snapshot store — which retires the replica `head`
    /// pointed at into `spare` — then the snapshot-cadence checkpoint.
    /// `working.base` must be the EDB after exactly this group's batches.
    fn flush_group(
        &self,
        head: &mut Arc<Replica>,
        spare: &mut Option<Spare>,
        working: Working,
        combined: UpdateBatch,
        group: Vec<Arc<UpdateSlot>>,
        wal_failure: &mut Option<(io::ErrorKind, String)>,
    ) {
        let epoch = head.epoch + 1;
        if let Some(persistence) = self.persist.get() {
            if let Err(e) = persistence.record(epoch, &combined) {
                let kind = e.kind();
                let message = e.to_string();
                for slot in group {
                    slot.fill(Err(SessionError::Persistence(io::Error::new(
                        kind,
                        message.clone(),
                    ))));
                }
                *wal_failure = Some((kind, message));
                // `working`'s EDB is ahead of anything that will ever be
                // published: it is dropped here, not kept as the spare.
                return;
            }
        }
        let Working { relations, base } = working;
        let start = Instant::now();
        let pure_insert = combined.retracts.is_empty();
        let insert_count = combined.inserts.len();
        // `base` holds the group's insertions as well as its retractions;
        // the evaluator is indifferent (it seeds the insertions itself
        // before it consults the EDB).
        let result = self.evaluator.apply(relations, combined.clone(), &base);
        let elapsed = start.elapsed();
        let removed = result.stats.removed_facts;
        // Batch insertions and resurrected EDB facts enter the relations
        // outside the iteration statistics, so the facts stored that way are
        // recovered from the totals: the net growth (over-deletion removals
        // added back) minus what the iterations account for.
        let new_facts = (result.total_facts() + removed).saturating_sub(head.result.total_facts());
        let inserted = if pure_insert {
            new_facts.saturating_sub(result.stats.total_new_facts())
        } else {
            // Mixed batches cannot split the unaccounted growth between
            // surviving insertions and resurrections; report the batch's
            // nominal insertion count instead.
            insert_count
        };
        let outcome = UpdateOutcome {
            epoch,
            inserted,
            removed,
            new_facts,
            derivations: result.stats.total_derivations(),
            iterations: result.stats.iterations.len(),
            termination: result.termination,
            total_facts: result.total_facts(),
            elapsed,
            coalesced: group.len(),
        };
        let next = Arc::new(Replica {
            epoch,
            result,
            base,
            batch: combined,
        });
        *write_recovered(&self.current) = Snapshot {
            replica: next.clone(),
        };
        *spare = Some(Spare::Retired(std::mem::replace(head, next)));
        telemetry::add(telemetry::Counter::Updates, group.len() as u64);
        telemetry::add(
            telemetry::Counter::CoalescedUpdates,
            group.len().saturating_sub(1) as u64,
        );
        telemetry::observe(
            telemetry::Hist::UpdateLatency,
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        );
        if let Some(persistence) = self.persist.get() {
            // A failed checkpoint is not fatal: the WAL still holds every
            // record since the last good snapshot, so recovery stays
            // correct — just slower.  Surface it and keep serving.
            if let Err(e) = persistence.maybe_checkpoint(epoch, &head.base) {
                eprintln!("warning: session checkpoint failed: {e}");
            }
        }
        for slot in group {
            slot.fill(Ok(outcome.clone()));
        }
    }

    /// Inserts one batch of EDB facts: a thin wrapper over
    /// [`Session::apply`] with an insert-only [`UpdateBatch`].
    pub fn insert(&self, facts: Vec<Fact>) -> Result<UpdateOutcome, SessionError> {
        self.apply(UpdateBatch::inserting(facts))
    }

    /// Parses fact-only text (`flight(a, b, 3).`, constraint facts included)
    /// and applies it as one insert-only update batch.
    pub fn insert_str(&self, text: &str) -> Result<UpdateOutcome, SessionError> {
        let facts = parse_facts(text)?;
        self.insert(facts)
    }

    /// Retracts one batch of EDB facts: a thin wrapper over
    /// [`Session::apply`] with a retract-only [`UpdateBatch`]
    /// (DRed-style incremental deletion).
    pub fn remove(&self, facts: Vec<Fact>) -> Result<UpdateOutcome, SessionError> {
        self.apply(UpdateBatch::retracting(facts))
    }

    /// Parses fact-only text and retracts it as one batch (the `-fact.` /
    /// `.retract` commands of the shell front-ends).
    pub fn remove_str(&self, text: &str) -> Result<UpdateOutcome, SessionError> {
        let facts = parse_facts(text)?;
        self.remove(facts)
    }

    /// Answers the program's own query (as rewritten) against the current
    /// snapshot.
    pub fn program_answers(&self) -> Result<(Query, Snapshot, Vec<Fact>), SessionError> {
        let literal = self.rewritten_query.clone().ok_or_else(|| {
            SessionError::UnsupportedQuery("the materialized program has no query".to_string())
        })?;
        self.query(&Query::new(literal))
    }

    /// A point-in-time description of the session.
    pub fn stats(&self) -> SessionStats {
        let snapshot = self.snapshot();
        let result = snapshot.result();
        SessionStats {
            epoch: snapshot.epoch(),
            total_facts: result.total_facts(),
            constraint_facts: result.stats.constraint_facts,
            relations: result
                .relations
                .iter()
                .map(|(pred, relation)| (pred.to_string(), relation.len()))
                .collect(),
            termination: result.termination,
            query_pred: self.optimized.query_pred.to_string(),
            update_queue_depth: telemetry::gauge(telemetry::Gauge::UpdateQueueDepth),
            epoch_lag: telemetry::gauge(telemetry::Gauge::EpochLag),
        }
    }
}

// Sessions are shared across REPL/server threads behind an `Arc`; keep the
// whole type thread-shareable by construction.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<Session>();
    assert_shareable::<Snapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_core::{programs, Strategy};
    use pcs_lang::parse_query;

    fn flights_session(strategy: Strategy) -> Session {
        let optimizer = Optimizer::new(programs::flights()).strategy(strategy);
        Session::materialize(&optimizer, &programs::flights_database(6, 10)).unwrap()
    }

    /// Every relation's facts, rendered and sorted.
    fn rendered(snapshot: &Snapshot) -> Vec<(String, Vec<String>)> {
        let relations = &snapshot.result().relations;
        relations
            .iter()
            .map(|(pred, relation)| {
                let mut facts: Vec<String> = relation.iter().map(|f| f.to_string()).collect();
                facts.sort();
                (pred.to_string(), facts)
            })
            .collect()
    }

    /// The session's EDB is `flights_database(6, 10)` plus `added`, and its
    /// materialization is what evaluating that from scratch stores.
    fn assert_matches_fresh_materialization(session: &Session, added: &str) {
        let mut db = programs::flights_database(6, 10);
        db.add_facts_str(added).unwrap();
        let sorted = |db: &Database| {
            let mut facts: Vec<String> = db.all_facts().map(ToString::to_string).collect();
            facts.sort();
            facts
        };
        let snapshot = session.snapshot();
        assert_eq!(sorted(snapshot.base()), sorted(&db));
        let optimizer = Optimizer::new(programs::flights()).strategy(session.strategy().clone());
        let fresh = Session::materialize(&optimizer, &db).unwrap();
        assert_eq!(rendered(&snapshot), rendered(&fresh.snapshot()));
    }

    #[test]
    fn queries_are_answered_from_the_materialization() {
        let session = flights_session(Strategy::ConstraintRewrite);
        let query = parse_query("?- cheaporshort(madison, seattle, T, C).").unwrap();
        let (_, snapshot, answers) = session.query(&query).unwrap();
        assert_eq!(snapshot.epoch(), 0);
        assert!(!answers.is_empty());
        // Side constraints narrow the answers.
        let narrowed = parse_query("?- cheaporshort(madison, seattle, T, C), T <= 200.").unwrap();
        let (_, _, narrowed) = session.query(&narrowed).unwrap();
        assert!(narrowed.len() <= answers.len());
    }

    #[test]
    fn edb_queries_and_facts_list_every_base_fact() {
        // Under the constraint rewrite a leg enters `singleleg`'s relation
        // only if it is short or cheap: the irrelevant legs of the flights
        // EDB and `leg` stay out, yet queries and `.facts` list them all.
        let hub = Arc::new(crate::hub::SessionHub::new());
        let session = hub.install(flights_session(Strategy::ConstraintRewrite));
        let mut shell = crate::shell::Shell::with_hub(hub);
        let singleleg = Pred::new("singleleg");
        let leg = "singleleg(madison, nowhere, 500, 900).";
        let base = programs::flights_database(6, 10)
            .facts_for(&singleleg)
            .len();
        let admitted = session.snapshot().result().count_for(&singleleg);
        assert!(admitted < base);
        let mut listed_with = |added: &str| {
            let listed = base + usize::from(!added.is_empty());
            let all = parse_query("?- singleleg(S, D, T, C).").unwrap();
            assert_eq!(session.query(&all).unwrap().2.len(), listed);
            let nowhere = parse_query("?- singleleg(madison, nowhere, T, C).").unwrap();
            assert_eq!(session.query(&nowhere).unwrap().2.len(), listed - base);
            let facts = shell.execute(".facts singleleg").lines;
            assert_eq!(facts[0], format!("singleleg: {listed} facts"));
            assert_eq!(
                facts.iter().any(|line| line.contains("nowhere")),
                listed > base
            );
            assert_eq!(session.snapshot().result().count_for(&singleleg), admitted);
            assert_matches_fresh_materialization(&session, added);
        };
        listed_with("");
        session.insert_str(leg).unwrap();
        listed_with(leg);
        session.remove_str(leg).unwrap();
        listed_with("");
    }

    #[test]
    fn magic_sessions_reroute_the_original_query_predicate() {
        let session = flights_session(Strategy::Optimal);
        let query = parse_query("?- cheaporshort(madison, seattle, T, C).").unwrap();
        let (resolved, _, answers) = session.query(&query).unwrap();
        assert_ne!(resolved.literals[0].predicate, query.literals[0].predicate);
        // Same answers as the baseline strategy computes.
        let baseline = flights_session(Strategy::None);
        let (_, _, expected) = baseline.query(&query).unwrap();
        assert_eq!(answers.len(), expected.len());
    }

    #[test]
    fn retargeted_sessions_answer_bindings_the_program_query_lacks() {
        // Under the constraint rewrite the query reads `flight`, but no magic
        // seed specialized it to the program query's `madison, seattle`: any
        // binding is answered, as the source program answers it.
        let session = flights_session(Strategy::ConstraintRewrite);
        assert_eq!(session.optimized().query_pred, Pred::new("flight"));
        let baseline = flights_session(Strategy::None);
        for text in [
            "?- cheaporshort(city1, D, T, C).",
            "?- cheaporshort(S, seattle, T, C), C <= 100.",
        ] {
            let query = parse_query(text).unwrap();
            let (resolved, _, answers) = session.query(&query).unwrap();
            assert_eq!(resolved.literals[0].predicate, Pred::new("flight"));
            let (_, _, expected) = baseline.query(&query).unwrap();
            assert!(!expected.is_empty(), "{text}");
            assert_eq!(tuples(&answers), tuples(&expected), "{text}");
        }
    }

    /// The argument lists of `facts`, rendered and sorted.
    fn tuples(facts: &[Fact]) -> Vec<String> {
        let mut tuples: Vec<String> = facts
            .iter()
            .map(|fact| fact.to_string().split_once('(').unwrap().1.to_string())
            .collect();
        tuples.sort();
        tuples
    }

    #[test]
    fn facts_of_a_removed_query_predicate_are_the_ones_it_would_hold() {
        // `.facts` on the query predicate the optimizer answers from `flight`
        // (`flight_bbff`) lists, under its own name, what it held before the
        // step: every `cheaporshort` fact, or under magic those of the
        // program query's `madison, seattle`.
        let baseline = flights_session(Strategy::None);
        let all = baseline.facts(&Pred::new("cheaporshort")).unwrap();
        let query = parse_query("?- cheaporshort(madison, seattle, T, C).").unwrap();
        let (_, _, asked) = baseline.query(&query).unwrap();
        assert!(!asked.is_empty() && asked.len() < all.len());
        for (strategy, removed, expected) in [
            (Strategy::ConstraintRewrite, "cheaporshort", &all),
            (Strategy::Optimal, "cheaporshort_bbff", &asked),
        ] {
            let session = flights_session(strategy);
            let removed = Pred::new(removed);
            assert_eq!(session.optimized().removed_query().unwrap().0, &removed);
            let facts = session.facts(&removed).unwrap();
            assert!(facts.iter().all(|fact| fact.predicate() == &removed));
            assert_eq!(tuples(&facts), tuples(expected), "{removed}");
        }
    }

    #[test]
    fn inserts_resume_and_match_a_fresh_materialization() {
        let session = flights_session(Strategy::ConstraintRewrite);
        let before = session.query(&parse_query("?- flight(madison, X, T, C).").unwrap());
        let before = before.unwrap().2.len();
        let outcome = session
            .insert_str("singleleg(madison, newhub, 10, 10).\nsingleleg(newhub, seattle, 10, 10).")
            .unwrap();
        assert_eq!(outcome.epoch, 1);
        assert!(outcome.termination.is_fixpoint());
        assert!(outcome.new_facts >= 2);
        let after = session.query(&parse_query("?- flight(madison, X, T, C).").unwrap());
        let after = after.unwrap().2.len();
        assert!(after > before);

        // A fresh session over base + updates answers identically.
        let mut db = programs::flights_database(6, 10);
        db.add_facts_str(
            "singleleg(madison, newhub, 10, 10).\nsingleleg(newhub, seattle, 10, 10).",
        )
        .unwrap();
        let optimizer = Optimizer::new(programs::flights()).strategy(Strategy::ConstraintRewrite);
        let fresh = Session::materialize(&optimizer, &db).unwrap();
        assert_eq!(fresh.stats().total_facts, session.stats().total_facts);
    }

    #[test]
    fn mixed_batches_apply_in_one_epoch_and_match_a_fresh_materialization() {
        for strategy in [
            Strategy::None,
            Strategy::ConstraintRewrite,
            Strategy::Optimal,
        ] {
            let session = flights_session(strategy.clone());
            // One atomic batch: reroute the madison hub — retract the
            // direct madison→seattle leg, insert a madison→newhub→seattle
            // pair.
            let batch = UpdateBatch::new()
                .retract_str("singleleg(madison, seattle, 200, 90).")
                .unwrap()
                .insert_str(
                    "singleleg(madison, newhub, 10, 10).\nsingleleg(newhub, seattle, 10, 10).",
                )
                .unwrap();
            let outcome = session.apply(batch).unwrap();
            assert_eq!(outcome.epoch, 1, "one epoch for the whole mixed batch");
            assert_eq!(outcome.inserted, 2);
            assert!(outcome.removed >= 1, "{outcome:?}");
            assert!(outcome.termination.is_fixpoint());

            // A fresh session over (base − retracts) + inserts answers
            // identically.
            let mut db = programs::flights_database(6, 10);
            assert!(
                db.remove_facts_str("singleleg(madison, seattle, 200, 90).")
                    .unwrap()
                    == 1
            );
            db.add_facts_str(
                "singleleg(madison, newhub, 10, 10).\nsingleleg(newhub, seattle, 10, 10).",
            )
            .unwrap();
            let optimizer = Optimizer::new(programs::flights()).strategy(strategy);
            let fresh = Session::materialize(&optimizer, &db).unwrap();
            assert_eq!(fresh.stats().total_facts, session.stats().total_facts);
            assert_eq!(fresh.stats().relations, session.stats().relations);
        }
    }

    #[test]
    fn mixed_batch_refusals_leave_the_session_untouched() {
        let session = flights_session(Strategy::ConstraintRewrite);
        // A bad retraction refuses the whole batch, inserts included.
        let batch = UpdateBatch::new()
            .insert_str("singleleg(madison, newhub, 10, 10).")
            .unwrap()
            .retract_str("singleleg(nope, nope, 1, 1).")
            .unwrap();
        assert!(matches!(
            session.apply(batch),
            Err(SessionError::NoSuchFact(_))
        ));
        assert_eq!(session.snapshot().epoch(), 0);
        // The insert did not leak into the EDB: inserting it again still
        // lands in epoch 1 as a fresh fact.
        let outcome = session
            .insert_str("singleleg(madison, newhub, 10, 10).")
            .unwrap();
        assert_eq!((outcome.epoch, outcome.inserted), (1, 1));
    }

    #[test]
    fn retractions_match_a_fresh_materialization_of_the_surviving_edb() {
        for strategy in [
            Strategy::None,
            Strategy::ConstraintRewrite,
            Strategy::Optimal,
        ] {
            let session = flights_session(strategy.clone());
            session
                .insert_str(
                    "singleleg(madison, newhub, 10, 10).\nsingleleg(newhub, seattle, 10, 10).",
                )
                .unwrap();
            let outcome = session
                .remove_str("singleleg(madison, newhub, 10, 10).")
                .unwrap();
            assert_eq!(outcome.epoch, 2);
            assert_eq!(outcome.inserted, 0);
            assert!(outcome.removed >= 1, "{outcome:?}");
            assert!(outcome.termination.is_fixpoint());

            // A fresh session over the surviving EDB answers identically.
            let mut db = programs::flights_database(6, 10);
            db.add_facts_str("singleleg(newhub, seattle, 10, 10).")
                .unwrap();
            let optimizer = Optimizer::new(programs::flights()).strategy(strategy);
            let fresh = Session::materialize(&optimizer, &db).unwrap();
            assert_eq!(fresh.stats().total_facts, session.stats().total_facts);
            assert_eq!(fresh.stats().relations, session.stats().relations);
        }
    }

    #[test]
    fn retracting_a_subsuming_fact_resurrects_subsumed_answers() {
        // The ground fact sits inside the constraint fact and is swallowed
        // at seed time; retracting the constraint fact must bring it back.
        let program = pcs_lang::parse_program("p(X) :- b(X), X >= 0.\n?- p(X).").unwrap();
        let mut db = Database::new();
        db.add_facts_str("b(X) :- X >= 0, X <= 10.\nb(5).").unwrap();
        let optimizer = Optimizer::new(program).strategy(Strategy::None);
        let session = Session::materialize(&optimizer, &db).unwrap();
        let query = parse_query("?- p(5).").unwrap();
        assert_eq!(session.query(&query).unwrap().2.len(), 1);
        let outcome = session.remove_str("b(X) :- X >= 0, X <= 10.").unwrap();
        assert!(outcome.removed >= 1);
        // p(5) survives, now supported by the resurrected ground b(5).
        assert_eq!(session.query(&query).unwrap().2.len(), 1);
        // Retracting b(5) as well empties the answers.
        session.remove_str("b(5).").unwrap();
        assert_eq!(session.query(&query).unwrap().2.len(), 0);
        assert_eq!(session.snapshot().epoch(), 2);
    }

    #[test]
    fn retraction_refusals_leave_the_session_untouched() {
        let session = flights_session(Strategy::ConstraintRewrite);
        let total = session.stats().total_facts;
        // Not an EDB predicate.
        let err = session.remove_str("flight(a, b, 1, 2).").unwrap_err();
        assert!(matches!(err, SessionError::NotAnEdbPredicate(_)));
        // Absent fact: the whole batch is refused, even though the first
        // fact of the batch exists.
        let err = session
            .remove_str("singleleg(madison, seattle, 200, 90).\nsingleleg(no, where, 1, 1).")
            .unwrap_err();
        assert!(matches!(err, SessionError::NoSuchFact(_)));
        assert!(err.to_string().contains("nothing was retracted"));
        assert_eq!(session.snapshot().epoch(), 0);
        assert_eq!(session.stats().total_facts, total);
        // The fact that existed is still retractable afterwards.
        assert!(session
            .remove_str("singleleg(madison, seattle, 200, 90).")
            .is_ok());
    }

    #[test]
    fn retractions_are_refused_on_partial_materializations() {
        let program =
            pcs_lang::parse_program("nat(0).\nnat(Y) :- seed(X), nat(X), Y = X + 1.\n?- nat(5).")
                .unwrap();
        let mut db = Database::new();
        db.add_facts_str("seed(0).\nseed(1).").unwrap();
        let optimizer = Optimizer::new(program)
            .strategy(Strategy::None)
            .eval_options(pcs_engine::EvalOptions {
                limits: pcs_engine::EvalLimits::capped(2),
                ..pcs_engine::EvalOptions::default()
            });
        let session = Session::materialize(&optimizer, &db).unwrap();
        let err = session.remove_str("seed(0).").unwrap_err();
        assert!(matches!(err, SessionError::PartialMaterialization(_)));
        assert_eq!(session.snapshot().epoch(), 0);
    }

    #[test]
    fn snapshots_are_isolated_from_later_updates() {
        let session = flights_session(Strategy::ConstraintRewrite);
        let old = session.snapshot();
        let old_total = old.result().total_facts();
        session
            .insert_str("singleleg(madison, elsewhere, 5, 5).")
            .unwrap();
        // The old snapshot still sees the old epoch; the session moved on.
        assert_eq!(old.epoch(), 0);
        assert_eq!(old.result().total_facts(), old_total);
        assert_eq!(session.snapshot().epoch(), 1);
        assert!(session.snapshot().result().total_facts() > old_total);
    }

    #[test]
    fn subsumed_updates_keep_the_session_stable() {
        let session = flights_session(Strategy::None);
        let total = session.stats().total_facts;
        // This exact leg is already in flights_database(6, 10).
        let outcome = session
            .insert_str("singleleg(madison, seattle, 200, 90).")
            .unwrap();
        assert_eq!(outcome.inserted, 0);
        assert_eq!(outcome.new_facts, 0);
        assert_eq!(outcome.total_facts, total);
    }

    #[test]
    fn magic_sessions_refuse_bindings_outside_the_seed() {
        let session = flights_session(Strategy::Optimal);
        // The magic seed specialized the materialization to
        // (madison, seattle, _, _): other sources must be refused loudly,
        // not silently under-answered.
        for text in [
            "?- cheaporshort(chicago, seattle, T, C).",
            "?- cheaporshort(S, seattle, T, C).",
        ] {
            let err = session.query(&parse_query(text).unwrap()).unwrap_err();
            assert!(matches!(err, SessionError::UnsupportedQuery(_)), "{text}");
            assert!(err.to_string().contains("specialized"), "{text}");
        }
        // Narrowing a free seed position is fine.
        let query = parse_query("?- cheaporshort(madison, seattle, T, C), T <= 10000.").unwrap();
        assert!(session.query(&query).is_ok());
    }

    #[test]
    fn updates_are_refused_on_partial_materializations() {
        // A diverging counter program capped at a few iterations: the base
        // materialization is partial, so resuming from it would silently
        // drop derivations.
        let program =
            pcs_lang::parse_program("nat(0).\nnat(Y) :- seed(X), nat(X), Y = X + 1.\n?- nat(5).")
                .unwrap();
        let mut db = Database::new();
        db.add_facts_str("seed(0).\nseed(1).\nseed(2).\nseed(3).")
            .unwrap();
        let optimizer = Optimizer::new(program)
            .strategy(Strategy::None)
            .eval_options(pcs_engine::EvalOptions {
                limits: pcs_engine::EvalLimits::capped(2),
                ..pcs_engine::EvalOptions::default()
            });
        let session = Session::materialize(&optimizer, &db).unwrap();
        assert!(!session.stats().termination.is_fixpoint());
        let err = session.insert_str("seed(4).").unwrap_err();
        assert!(matches!(err, SessionError::PartialMaterialization(_)));
        assert!(err.to_string().contains("partial"));
        // Nothing was published.
        assert_eq!(session.snapshot().epoch(), 0);
    }

    #[test]
    fn bad_inserts_and_queries_are_rejected() {
        let session = flights_session(Strategy::ConstraintRewrite);
        // `flight` is an IDB predicate of the program.
        let err = session.insert_str("flight(a, b, 1, 2).").unwrap_err();
        assert!(matches!(err, SessionError::NotAnEdbPredicate(_)));
        // Unknown predicates and multi-literal queries are reported.
        let err = session
            .query(&parse_query("?- nosuch(X).").unwrap())
            .unwrap_err();
        assert!(matches!(err, SessionError::UnknownPredicate(_)));
        let err = session
            .query(&parse_query("?- flight(X, Y, T, C), flight(Y, Z, T2, C2).").unwrap())
            .unwrap_err();
        assert!(matches!(err, SessionError::UnsupportedQuery(_)));
        // Errors leave the epoch untouched.
        assert_eq!(session.snapshot().epoch(), 0);
    }

    #[test]
    fn sessions_survive_a_panic_while_locks_are_held() {
        // A worker thread that dies holding any session lock must not take
        // the session down with it: the locks guard state that is committed
        // atomically (the snapshot pointer store), so recovery is sound.
        let session = Arc::new(flights_session(Strategy::ConstraintRewrite));
        let query = parse_query("?- cheaporshort(madison, seattle, T, C).").unwrap();
        let before = session.query(&query).unwrap().2.len();

        let poisoner = session.clone();
        let _ = std::thread::spawn(move || {
            let _current = poisoner.current.write().unwrap();
            panic!("die holding the snapshot lock");
        })
        .join();
        let poisoner = session.clone();
        let _ = std::thread::spawn(move || {
            let _update = poisoner.update_lock.lock().unwrap();
            panic!("die holding the update lock");
        })
        .join();
        let poisoner = session.clone();
        let _ = std::thread::spawn(move || {
            let _queue = poisoner.queue.lock().unwrap();
            panic!("die holding the queue lock");
        })
        .join();

        // Queries and updates both still work after all three poisonings.
        assert_eq!(session.query(&query).unwrap().2.len(), before);
        let outcome = session
            .insert_str("singleleg(madison, seattle, 45, 30).")
            .unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(session.query(&query).unwrap().2.len(), before + 1);
    }

    #[test]
    fn queued_batches_coalesce_into_one_epoch() {
        // Stage three compatible batches in the queue by hand, then run one
        // `apply`: the leader must drain all four into a single epoch.
        let session = flights_session(Strategy::ConstraintRewrite);
        let staged: Vec<Arc<UpdateSlot>> = (0..3)
            .map(|i| {
                let slot = Arc::new(UpdateSlot::default());
                let batch = UpdateBatch::inserting(
                    parse_facts(&format!("singleleg(madison, stage{i}, 10, 10).")).unwrap(),
                );
                lock_recovered(&session.queue).push_back(QueuedUpdate {
                    batch,
                    slot: slot.clone(),
                });
                slot
            })
            .collect();
        let outcome = session
            .insert_str("singleleg(madison, leader, 10, 10).")
            .unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.coalesced, 4);
        for slot in staged {
            let staged_outcome = slot.take().expect("drained").unwrap();
            assert_eq!(staged_outcome.epoch, 1);
            assert_eq!(staged_outcome.coalesced, 4);
        }
        assert_eq!(session.snapshot().epoch(), 1);
        // All four inserts landed.
        let query = parse_query("?- flight(madison, X, T, C).").unwrap();
        let answers = session.query(&query).unwrap().2;
        for name in ["stage0", "stage1", "stage2", "leader"] {
            assert!(
                answers.iter().any(|f| f.to_string().contains(name)),
                "{name} missing from {answers:?}"
            );
        }
        assert_matches_fresh_materialization(
            &session,
            "singleleg(madison, stage0, 10, 10).\nsingleleg(madison, stage1, 10, 10).\n\
             singleleg(madison, stage2, 10, 10).\nsingleleg(madison, leader, 10, 10).",
        );
    }

    #[test]
    fn conflicting_queued_batches_split_into_ordered_epochs() {
        // Batch 2 retracts what batch 1 inserts: order-sensitive, so the
        // leader must flush batch 1 as its own epoch before applying
        // batch 2, not merge them (merged, the insert+retract would cancel
        // into a refusal or the wrong final state).
        let session = flights_session(Strategy::ConstraintRewrite);
        let slot = Arc::new(UpdateSlot::default());
        lock_recovered(&session.queue).push_back(QueuedUpdate {
            batch: UpdateBatch::inserting(
                parse_facts("singleleg(madison, transient, 10, 10).").unwrap(),
            ),
            slot: slot.clone(),
        });
        let outcome = session
            .remove_str("singleleg(madison, transient, 10, 10).")
            .unwrap();
        let staged_outcome = slot.take().expect("drained").unwrap();
        assert_eq!(staged_outcome.epoch, 1);
        assert_eq!(staged_outcome.coalesced, 1);
        assert_eq!(outcome.epoch, 2);
        assert_eq!(outcome.coalesced, 1);
        // The net effect is a no-op: the transient leg is gone.
        let query = parse_query("?- flight(madison, transient, T, C).").unwrap();
        assert!(session.query(&query).unwrap().2.is_empty());
        // The second epoch was built on the replica the first one retired,
        // caught up mid-drain.
        assert_matches_fresh_materialization(&session, "");
    }

    #[test]
    fn a_refused_drain_keeps_the_writers_replica_level() {
        let session = flights_session(Strategy::ConstraintRewrite);
        session
            .insert_str("singleleg(madison, first, 10, 10).")
            .unwrap();
        // The refusal acquires the spare replica, catches it up, and then
        // publishes nothing: it must come back level, not be re-applied or
        // lost.
        let err = session.remove_str("singleleg(no, where, 1, 1).");
        assert!(matches!(err, Err(SessionError::NoSuchFact(_))));
        assert!(matches!(
            *lock_recovered(&session.update_lock),
            Some(Spare::Level(_))
        ));
        session
            .insert_str("singleleg(first, seattle, 10, 10).")
            .unwrap();
        session
            .remove_str("singleleg(madison, first, 10, 10).")
            .unwrap();
        assert_eq!(session.snapshot().epoch(), 3);
        assert_matches_fresh_materialization(&session, "singleleg(first, seattle, 10, 10).");
    }

    #[test]
    fn a_leader_that_panics_fails_its_waiters_and_loses_only_its_replica() {
        // Unrewritten, r4 adds the times of every pair of joinable flights.
        let session = flights_session(Strategy::None);
        session
            .insert_str("singleleg(madison, warm, 10, 10).")
            .unwrap();
        let before = session.snapshot();
        // A bystander's batch is queued; the leader's own batch carries a
        // numeral that overflows `T = T1 + T2 + 30` in the exact arithmetic
        // of the one evaluation pass both batches share.
        let bystander = Arc::new(UpdateSlot::default());
        lock_recovered(&session.queue).push_back(QueuedUpdate {
            batch: UpdateBatch::inserting(
                parse_facts("singleleg(madison, bystander, 10, 10).").unwrap(),
            ),
            slot: bystander.clone(),
        });
        let huge = pcs_constraints::Rational::from_int(i128::MAX);
        let poison = Fact::ground(
            "singleleg",
            vec![
                pcs_engine::Value::sym("overflow"),
                pcs_engine::Value::sym("madison"),
                pcs_engine::Value::num(huge),
                pcs_engine::Value::num(1),
            ],
        );
        let leader = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.insert(vec![poison])
        }));
        assert!(leader.is_err(), "the evaluation overflows");
        // The waiter has an error to read instead of an empty slot.
        assert!(matches!(
            bystander.take().expect("filled while unwinding"),
            Err(SessionError::Abandoned)
        ));
        // Nothing was published, and the half-applied replica is gone.
        let after = session.snapshot();
        assert_eq!(after.epoch(), before.epoch());
        assert_eq!(rendered(&after), rendered(&before));
        assert!(lock_recovered(&session.update_lock).is_none());
        // The next update starts from a fresh copy of the published epoch.
        let outcome = session
            .insert_str("singleleg(warm, seattle, 10, 10).")
            .unwrap();
        assert_eq!(outcome.epoch, before.epoch() + 1);
        assert_matches_fresh_materialization(
            &session,
            "singleleg(madison, warm, 10, 10).\nsingleleg(warm, seattle, 10, 10).",
        );
    }

    #[test]
    fn sequential_refusal_semantics_survive_coalescing() {
        // A queued batch retracting a fact that only a *later* queued batch
        // inserts is refused, exactly as sequential application would.
        let session = flights_session(Strategy::ConstraintRewrite);
        let early = Arc::new(UpdateSlot::default());
        lock_recovered(&session.queue).push_back(QueuedUpdate {
            batch: UpdateBatch::retracting(
                parse_facts("singleleg(madison, future, 10, 10).").unwrap(),
            ),
            slot: early.clone(),
        });
        let outcome = session
            .insert_str("singleleg(madison, future, 10, 10).")
            .unwrap();
        assert!(matches!(
            early.take().expect("drained"),
            Err(SessionError::NoSuchFact(_))
        ));
        // The refused batch did not consume an epoch or poison the group.
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.coalesced, 1);
        let query = parse_query("?- flight(madison, future, T, C).").unwrap();
        assert_eq!(session.query(&query).unwrap().2.len(), 1);
    }

    #[test]
    fn concurrent_updates_from_many_threads_converge() {
        // End-to-end hammer: many threads apply disjoint inserts through the
        // public API; every update must succeed, land in *some* epoch, and
        // the final state must equal a fresh materialization of base + all
        // inserts.  Coalescing makes the epoch count ≤ the thread count.
        let session = Arc::new(flights_session(Strategy::ConstraintRewrite));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let session = session.clone();
                std::thread::spawn(move || {
                    session
                        .insert_str(&format!("singleleg(madison, hammer{i}, 10, 10)."))
                        .unwrap()
                })
            })
            .collect();
        let outcomes: Vec<UpdateOutcome> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let last_epoch = session.snapshot().epoch();
        assert!((1..=8).contains(&last_epoch), "{last_epoch}");
        let total_coalesced: usize = outcomes.iter().map(|o| o.coalesced).sum::<usize>();
        assert!(total_coalesced >= 8, "every batch counted somewhere");

        let mut db = programs::flights_database(6, 10);
        for i in 0..8 {
            db.add_facts_str(&format!("singleleg(madison, hammer{i}, 10, 10)."))
                .unwrap();
        }
        let optimizer = Optimizer::new(programs::flights()).strategy(Strategy::ConstraintRewrite);
        let fresh = Session::materialize(&optimizer, &db).unwrap();
        assert_eq!(fresh.stats().total_facts, session.stats().total_facts);
        assert_eq!(fresh.stats().relations, session.stats().relations);
    }

    #[test]
    fn fact_limits_refuse_growth_but_not_retractions() {
        let session = flights_session(Strategy::ConstraintRewrite);
        let edb_size = session.snapshot().base().len();
        session.set_fact_limit(edb_size + 1);
        assert_eq!(session.fact_limit(), edb_size + 1);
        // One insert fits...
        session
            .insert_str("singleleg(madison, cap1, 10, 10).")
            .unwrap();
        // ...the next would exceed the cap.
        let err = session
            .insert_str("singleleg(madison, cap2, 10, 10).")
            .unwrap_err();
        assert!(matches!(err, SessionError::FactLimit(_)), "{err}");
        assert_eq!(session.snapshot().epoch(), 1);
        // Retractions still work at the cap, and free room for new inserts.
        session
            .remove_str("singleleg(madison, cap1, 10, 10).")
            .unwrap();
        session
            .insert_str("singleleg(madison, cap2, 10, 10).")
            .unwrap();
    }

    #[test]
    fn fact_limits_count_a_batchs_net_growth() {
        // Regression: the cap check added the batch's insertions but ignored
        // its own retractions, so replacing one fact at the cap was refused
        // although the EDB would not grow.
        let session = flights_session(Strategy::ConstraintRewrite);
        let edb_size = session.snapshot().base().len();
        session.set_fact_limit(edb_size);
        let replace = UpdateBatch::new()
            .retract_str("singleleg(madison, seattle, 200, 90).")
            .unwrap()
            .insert_str("singleleg(madison, cap1, 10, 10).")
            .unwrap();
        session.apply(replace).unwrap();
        assert_eq!(session.snapshot().base().len(), edb_size);
        // A batch that nets one more fact than it retracts is still refused.
        let grow = UpdateBatch::new()
            .retract_str("singleleg(madison, cap1, 10, 10).")
            .unwrap()
            .insert_str("singleleg(madison, cap2, 10, 10).\nsingleleg(madison, cap3, 10, 10).")
            .unwrap();
        let err = session.apply(grow).unwrap_err();
        assert!(matches!(err, SessionError::FactLimit(_)), "{err}");
        assert_eq!(session.snapshot().epoch(), 1);
    }

    #[test]
    fn persistence_records_updates_and_checkpoints_on_cadence() {
        let dir = std::env::temp_dir().join(format!(
            "pcs-session-persist-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let session = flights_session(Strategy::ConstraintRewrite);
        let persistence = Persistence::create(
            &dir,
            "constraint",
            session.source().to_string(),
            2,
            0,
            session.snapshot().base(),
        )
        .unwrap();
        session.attach_persistence(persistence).unwrap();
        assert!(session.persistence().is_some());

        // Epoch 1 lands in the WAL; epoch 2 hits the cadence and
        // checkpoints (snapshot rewritten, WAL truncated); epoch 3 starts
        // refilling the WAL.
        session
            .insert_str("singleleg(madison, wal1, 10, 10).")
            .unwrap();
        let (records, _) = crate::wal::read_wal(&dir.join(crate::wal::WAL_FILE)).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].epoch, 1);
        session
            .insert_str("singleleg(madison, wal2, 10, 10).")
            .unwrap();
        let (records, _) = crate::wal::read_wal(&dir.join(crate::wal::WAL_FILE)).unwrap();
        assert!(records.is_empty(), "cadence checkpoint truncates the WAL");
        session
            .remove_str("singleleg(madison, wal1, 10, 10).")
            .unwrap();
        let (records, _) = crate::wal::read_wal(&dir.join(crate::wal::WAL_FILE)).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].epoch, 3);

        // What is on disk reconstructs the live EDB exactly.
        let recovered = crate::wal::recover_dir(&dir).unwrap().expect("snapshot");
        assert_eq!(recovered.epoch, 3);
        assert!(recovered.warning.is_none());
        let live = session.snapshot();
        let live_facts: Vec<&Fact> = live.base().all_facts().collect();
        assert_eq!(recovered.db.len(), live.base().len());
        for fact in recovered.db.all_facts() {
            assert!(
                live_facts.iter().any(|f| f.equivalent(fact)),
                "recovered fact `{fact}` missing from the live EDB"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
