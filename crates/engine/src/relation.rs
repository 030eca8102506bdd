//! In-memory relations of constraint facts with subsumption-based insertion,
//! per-position hash indexes, and an explicit stable/delta/pending partition
//! for semi-naive evaluation.
//!
//! ## Storage layout
//!
//! A relation addresses its facts by *logical index* — the slot a fact was
//! given when it was inserted — and every piece of evaluation machinery (the
//! stable/delta/pending [`Window`] ranges, the per-position indexes,
//! round delta candidates, retraction's index sets) works purely in that
//! index space.  A fact keeps its index for as long as it is stored:
//! [`Relation::remove_indices`] deletes in place, leaving a *dead* slot
//! behind, so a logical index is not a dense position — [`Relation::len`]
//! counts the live facts, [`Relation::slot_count`] bounds the index space,
//! and every enumeration skips the dead slots.  Dead slots are reclaimed
//! only by compaction, which renumbers the survivors in order once the dead
//! outnumber the live.
//!
//! Behind the indices, storage is split: ground facts (the overwhelming
//! majority in real workloads, Theorem 4.4) live as flat arity-strided rows
//! of interned [`Value`]s in a single columnar buffer, while proper
//! constraint facts — and any fact the columnar store cannot hold — keep the
//! full [`Fact`] representation in a slow-path tail.  A ground tuple
//! therefore costs `arity × 16` bytes plus one 8-byte slot, instead of a
//! whole `Fact` (its `Vec<Binding>`, an empty conjunction, and a second copy
//! of the values in the old dedup hash set).
//!
//! Reads hand out [`FactRef`] views; [`FactRef::to_fact`] materializes an
//! owned [`Fact`] for the slow paths that need one.

use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::OnceLock;

use pcs_lang::Pred;

use crate::fact::{Binding, Fact};
use crate::value::Value;

/// The outcome of inserting a fact into a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The fact was new and has been added.
    Added,
    /// The fact (or a fact subsuming it) was already present; the relation is
    /// unchanged.  Corresponds to the boldface "subsumed facts" of Table 1.
    Subsumed,
}

/// Which segment of a relation a semi-naive join step is allowed to see.
///
/// Facts move through three segments: *stable* facts were known before the
/// previous iteration, *delta* facts were first derived during the previous
/// iteration, and facts inserted since the last [`Relation::advance`] are
/// *pending* (invisible to every window until the next advance).  With the
/// delta literal at body position `j`, literals before `j` read
/// [`Window::Stable`], the literal at `j` reads [`Window::Delta`], and
/// literals after `j` read [`Window::Known`] (stable ∪ delta), so every new
/// combination of facts is joined exactly once per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Facts known before the previous iteration.
    Stable,
    /// Facts first derived during the previous iteration.
    Delta,
    /// Stable and delta facts together (everything except pending ones).
    Known,
}

/// A borrowed view of one stored fact.
///
/// Ground facts stored columnar appear as a predicate plus a row of values;
/// everything else borrows the stored [`Fact`].  The join core pattern
/// matches on this to take a renaming-free fast path for ground rows.
#[derive(Clone, Copy)]
pub enum FactRef<'a> {
    /// A ground fact stored as a columnar row.
    Ground {
        /// The fact's predicate.
        predicate: &'a Pred,
        /// The ground values, one per argument position.
        row: &'a [Value],
    },
    /// A fact stored in full (constraint facts, and ground facts the
    /// columnar store cannot hold).
    Stored(&'a Fact),
}

impl<'a> FactRef<'a> {
    /// The predicate of the fact.
    pub fn predicate(&self) -> &'a Pred {
        match self {
            FactRef::Ground { predicate, .. } => predicate,
            FactRef::Stored(fact) => fact.predicate(),
        }
    }

    /// The arity of the fact.
    pub fn arity(&self) -> usize {
        match self {
            FactRef::Ground { row, .. } => row.len(),
            FactRef::Stored(fact) => fact.arity(),
        }
    }

    /// Returns `true` if every position is bound and there is no residual
    /// constraint.
    pub fn is_ground(&self) -> bool {
        match self {
            FactRef::Ground { .. } => true,
            FactRef::Stored(fact) => fact.is_ground(),
        }
    }

    /// The ground value at `position` (0-based), or `None` if the position
    /// is free or out of range.
    pub fn bound_value(&self, position: usize) -> Option<&'a Value> {
        match self {
            FactRef::Ground { row, .. } => row.get(position),
            FactRef::Stored(fact) => fact.bound_value(position),
        }
    }

    /// Materializes an owned [`Fact`].
    pub fn to_fact(&self) -> Fact {
        match self {
            FactRef::Ground { predicate, row } => Fact::ground((*predicate).clone(), row.to_vec()),
            FactRef::Stored(fact) => (*fact).clone(),
        }
    }
}

/// Writes the ground fact `predicate(row)` exactly as [`Fact`]'s `Display`
/// does (a bare predicate name at arity zero).
fn fmt_row(f: &mut std::fmt::Formatter<'_>, predicate: &Pred, row: &[Value]) -> std::fmt::Result {
    write!(f, "{predicate}")?;
    for (i, value) in row.iter().enumerate() {
        write!(f, "{}{value}", if i == 0 { "(" } else { ", " })?;
    }
    if row.is_empty() {
        Ok(())
    } else {
        write!(f, ")")
    }
}

impl std::fmt::Display for FactRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactRef::Ground { predicate, row } => fmt_row(f, predicate, row),
            FactRef::Stored(fact) => write!(f, "{fact}"),
        }
    }
}

impl std::fmt::Debug for FactRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

/// Where a logical fact index is stored.
#[derive(Clone, Copy)]
enum Slot {
    /// Row `start..start + arity` of the columnar ground store.
    Ground { start: u32 },
    /// Index into the full-fact tail.
    Stored { tail: u32 },
    /// The fact was removed; no index refers to the slot any more, and its
    /// storage is garbage until the next compaction.
    Dead,
}

/// The columnar buffer for ground facts: rows of `arity` interned values,
/// all for the same predicate.
#[derive(Clone, Default)]
struct GroundStore {
    predicate: Option<Pred>,
    arity: usize,
    values: Vec<Value>,
}

impl GroundStore {
    /// Whether a ground fact with this predicate/arity fits the store
    /// (adopting the predicate and arity of the first one stored).
    fn accepts(&mut self, predicate: &Pred, arity: usize) -> bool {
        match &self.predicate {
            None => {
                self.predicate = Some(predicate.clone());
                self.arity = arity;
                true
            }
            Some(p) => p == predicate && self.arity == arity,
        }
    }

    fn row(&self, start: u32) -> &[Value] {
        let start = start as usize;
        &self.values[start..start + self.arity]
    }
}

fn row_hash(values: &[Value]) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    values.hash(&mut hasher);
    hasher.finish()
}

/// Removes `index` from the sorted index list stored under `key`, and the
/// list itself once it is empty (a churning relation would otherwise keep a
/// bucket for every value it ever held).
fn unindex<K: Eq + Hash>(map: &mut HashMap<K, Vec<usize>>, key: &K, index: usize) {
    let Some(entries) = map.get_mut(key) else {
        return;
    };
    remove_sorted(entries, index);
    if entries.is_empty() {
        map.remove(key);
    }
}

/// Removes `index` from a sorted index list.
fn remove_sorted(entries: &mut Vec<usize>, index: usize) {
    if let Ok(at) = entries.binary_search(&index) {
        entries.remove(at);
    }
}

/// A finite set of constraint facts for one predicate.
///
/// Ground facts are additionally tracked in a row-hash index so the common
/// case (programs whose evaluation computes only ground facts, Theorem 4.4)
/// does not pay for pairwise subsumption checks.  Joins probe a per-position
/// hash index mapping a bound [`Value`] to the facts holding it at that
/// position, then scan the list of facts that are *free* (constrained)
/// there.  A position's value index is built on its first probe and
/// maintained by inserts and removals from then on, so a relation pays only
/// for the columns its readers probe; the free lists are always maintained.
#[derive(Clone, Default)]
pub struct Relation {
    /// Logical fact index → storage location.
    slots: Vec<Slot>,
    /// How many of `slots` are [`Slot::Dead`].
    dead: usize,
    ground: GroundStore,
    tail: Vec<Fact>,
    /// Ground-row hash → logical indices of ground facts with that hash.
    row_index: HashMap<u64, Vec<usize>>,
    /// Facts `0..stable_end` are stable, `stable_end..delta_end` are the
    /// delta, and `delta_end..` are pending until the next [`Self::advance`].
    stable_end: usize,
    delta_end: usize,
    /// Per argument position: fact indices holding each bound value there,
    /// built on the position's first probe (see [`Self::exact_entries`]).
    value_index: Vec<OnceLock<HashMap<Value, Vec<usize>>>>,
    /// Per argument position: fact indices that are free (constrained) there.
    free_index: Vec<Vec<usize>>,
    /// Indices of the proper (non-ground) constraint facts, the only facts
    /// that can subsume anything beyond an exact ground duplicate.
    constraint_fact_indices: Vec<usize>,
}

impl Relation {
    /// Creates an empty relation.
    pub fn new() -> Self {
        Relation::default()
    }

    /// The fact at a logical index, as a borrowed view.  The index must be
    /// one an enumeration of this relation yielded: a removed fact's index
    /// names nothing.
    pub fn fact_ref(&self, index: usize) -> FactRef<'_> {
        match self.slots[index] {
            Slot::Ground { start } => FactRef::Ground {
                predicate: self
                    .ground
                    .predicate
                    .as_ref()
                    .expect("ground rows imply a store predicate"),
                row: self.ground.row(start),
            },
            Slot::Stored { tail } => FactRef::Stored(&self.tail[tail as usize]),
            Slot::Dead => panic!("the fact at logical index {index} was removed"),
        }
    }

    /// The fact at a logical index, materialized.
    pub fn fact_at(&self, index: usize) -> Fact {
        self.fact_ref(index).to_fact()
    }

    /// The facts currently in the relation (all segments), materialized in
    /// logical order.
    pub fn to_facts(&self) -> Vec<Fact> {
        self.iter().map(|fact| fact.to_fact()).collect()
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.slots.len() - self.dead
    }

    /// Returns `true` if the relation has no facts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The exclusive upper bound of the logical index space: every stored
    /// fact's index is below it.  Equal to [`Self::len`] until a removal
    /// leaves dead slots behind.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of facts that are not ground (proper constraint facts).
    pub fn constraint_fact_count(&self) -> usize {
        self.constraint_fact_indices.len()
    }

    /// The stored fact at a logical index known to live in the tail
    /// (every proper constraint fact does).
    fn tail_fact(&self, index: usize) -> &Fact {
        match self.slots[index] {
            Slot::Stored { tail } => &self.tail[tail as usize],
            Slot::Ground { .. } | Slot::Dead => {
                unreachable!("live constraint facts live in the tail")
            }
        }
    }

    /// Whether the fact at `index` is ground with exactly these values.
    fn ground_row_eq(&self, index: usize, values: &[Value]) -> bool {
        match self.slots[index] {
            Slot::Ground { start } => self.ground.row(start) == values,
            Slot::Stored { tail } => {
                let fact = &self.tail[tail as usize];
                fact.is_ground()
                    && fact.arity() == values.len()
                    && values
                        .iter()
                        .enumerate()
                        .all(|(i, v)| fact.bound_value(i) == Some(v))
            }
            Slot::Dead => false,
        }
    }

    /// The logical index of the ground fact with exactly these values.
    pub(crate) fn find_row(&self, values: &[Value]) -> Option<usize> {
        self.find_row_hashed(row_hash(values), values)
    }

    fn find_row_hashed(&self, hash: u64, values: &[Value]) -> Option<usize> {
        self.row_index
            .get(&hash)?
            .iter()
            .copied()
            .find(|&index| self.ground_row_eq(index, values))
    }

    /// Whether a stored proper constraint fact subsumes `fact`.  Beyond an
    /// exact ground duplicate (answered by the row-hash index) only these
    /// can subsume anything: normalization pins single-valued positions, so
    /// a ground fact subsumes exactly its own duplicate.  That keeps
    /// insertion linear in the number of constraint facts instead of the
    /// relation size.
    fn constraint_fact_subsumes(&self, fact: &Fact) -> bool {
        self.constraint_fact_indices
            .iter()
            .any(|&index| self.tail_fact(index).subsumes(fact))
    }

    /// Inserts a fact unless it is subsumed by an existing one.
    ///
    /// The fact lands in the *pending* segment: it is stored (and visible
    /// through [`Self::iter`]) immediately, but no [`Window`] exposes it
    /// until the next [`Self::advance`].  Ground facts go through
    /// [`Self::insert_row`].
    pub fn insert(&mut self, fact: Fact) -> InsertOutcome {
        match fact.into_ground_row() {
            Ok((predicate, row)) => self.insert_row(&predicate, row),
            Err(fact) => {
                pcs_telemetry::bump(pcs_telemetry::Counter::SubsumptionChecks);
                if self.constraint_fact_subsumes(&fact) {
                    return InsertOutcome::Subsumed;
                }
                self.store_constraint_fact(fact);
                InsertOutcome::Added
            }
        }
    }

    /// [`Self::insert`] for a borrowed fact (an EDB fact being seeded): a
    /// ground fact's values are copied straight into a row, with no clone of
    /// the [`Fact`] around them.
    pub fn insert_ref(&mut self, fact: &Fact) -> InsertOutcome {
        match fact.ground_values() {
            Some(row) => self.insert_row(fact.predicate(), row),
            None => self.insert(fact.clone()),
        }
    }

    /// Inserts the ground fact `predicate(row)` unless it is already present
    /// or a stored constraint fact subsumes it — the path every ground
    /// derivation and every ground EDB fact takes: one row hash, and no
    /// [`Fact`] unless the relation holds constraint facts to ask.
    pub fn insert_row(&mut self, predicate: &Pred, row: Vec<Value>) -> InsertOutcome {
        pcs_telemetry::bump(pcs_telemetry::Counter::SubsumptionChecks);
        let hash = row_hash(&row);
        if self.find_row_hashed(hash, &row).is_some()
            || (!self.constraint_fact_indices.is_empty()
                && self.constraint_fact_subsumes(&Fact::ground(predicate.clone(), row.clone())))
        {
            return InsertOutcome::Subsumed;
        }
        self.store_row(predicate, row, hash);
        InsertOutcome::Added
    }

    /// Appends a fact and maintains every index, without the subsumption
    /// check of [`Self::insert`]: the path of facts that must be stored
    /// verbatim — the survivors of a compaction and the rows a replica
    /// copies from its head ([`Self::catch_up`]).  Either may legitimately
    /// be subsumed by a fact stored after it (the narrower fact came first),
    /// and re-checking would silently drop it.
    fn store(&mut self, fact: FactRef<'_>) {
        match fact {
            FactRef::Ground { predicate, row } => {
                self.store_row(predicate, row.to_vec(), row_hash(row));
            }
            FactRef::Stored(fact) => match fact.ground_values() {
                Some(row) => {
                    let hash = row_hash(&row);
                    self.store_row(fact.predicate(), row, hash);
                }
                None => self.store_constraint_fact(fact.clone()),
            },
        }
    }

    fn grow_indexes(&mut self, arity: usize) {
        if self.value_index.len() < arity {
            self.value_index.resize_with(arity, OnceLock::new);
            self.free_index.resize_with(arity, Vec::new);
        }
    }

    /// Appends a ground row (whose hash is `hash`) and indexes it.
    fn store_row(&mut self, predicate: &Pred, row: Vec<Value>, hash: u64) {
        let index = self.slots.len();
        self.grow_indexes(row.len());
        for (position, value) in row.iter().enumerate() {
            if let Some(by_value) = self.value_index[position].get_mut() {
                by_value.entry(value.clone()).or_default().push(index);
            }
        }
        self.row_index.entry(hash).or_default().push(index);
        if self.ground.accepts(predicate, row.len()) {
            let start = u32::try_from(self.ground.values.len()).expect("ground store overflow");
            self.ground.values.extend(row);
            self.slots.push(Slot::Ground { start });
        } else {
            self.push_tail(Fact::ground(predicate.clone(), row));
        }
    }

    /// Appends a proper constraint fact and indexes it.
    fn store_constraint_fact(&mut self, fact: Fact) {
        let index = self.slots.len();
        self.constraint_fact_indices.push(index);
        self.grow_indexes(fact.arity());
        for (position, binding) in fact.bindings().iter().enumerate() {
            match binding {
                Binding::Bound(value) => {
                    if let Some(by_value) = self.value_index[position].get_mut() {
                        by_value.entry(value.clone()).or_default().push(index);
                    }
                }
                Binding::Free => self.free_index[position].push(index),
            }
        }
        self.push_tail(fact);
    }

    fn push_tail(&mut self, fact: Fact) {
        let tail = u32::try_from(self.tail.len()).expect("tail overflow");
        self.tail.push(fact);
        self.slots.push(Slot::Stored { tail });
    }

    /// The index of the stored fact denoting exactly the same ground facts
    /// as `fact` (see [`Fact::equivalent`]), if any.
    ///
    /// At most one stored fact can be equivalent to any given fact: a second
    /// equivalent insertion is always subsumed by the first.  Ground facts
    /// are answered through the row-hash index; beyond that only the
    /// constraint-fact tail needs a scan.
    pub fn find_equivalent(&self, fact: &Fact) -> Option<usize> {
        if let Some(values) = fact.ground_values() {
            if let Some(index) = self.find_row(&values) {
                return Some(index);
            }
        }
        self.constraint_fact_indices
            .iter()
            .copied()
            .find(|&index| self.tail_fact(index).equivalent(fact))
    }

    /// Removes the facts at the given (live) indices in place, then seals
    /// the partition (every survivor becomes stable).  Each removed slot is
    /// marked dead and its entries leave the row-hash index, the
    /// per-position indexes and the constraint-fact list, so the cost is
    /// that of the removed facts, not of the relation; survivors keep their
    /// logical indices and their order.  Returns how many facts were
    /// removed.
    ///
    /// Once the dead slots outnumber the live facts the relation is
    /// compacted: rebuilt from its survivors, in order, with fresh dense
    /// indices.  The decision depends on the two counts alone, so two
    /// relations holding the same slots make it at the same call — what
    /// keeps replicas of a relation index-identical ([`Self::catch_up`]) —
    /// and a compaction is paid for by the removals that preceded it.
    pub fn remove_indices(&mut self, removed: &BTreeSet<usize>) -> usize {
        for &index in removed {
            self.kill(index);
        }
        if self.dead > self.len() {
            self.compact();
        }
        self.seal();
        removed.len()
    }

    /// Marks the slot at `index` dead and drops it from every index.
    fn kill(&mut self, index: usize) {
        match std::mem::replace(&mut self.slots[index], Slot::Dead) {
            Slot::Ground { start } => {
                let start = start as usize;
                let row = &self.ground.values[start..start + self.ground.arity];
                unindex(&mut self.row_index, &row_hash(row), index);
                for (position, value) in row.iter().enumerate() {
                    if let Some(by_value) = self.value_index[position].get_mut() {
                        unindex(by_value, value, index);
                    }
                }
            }
            Slot::Stored { tail } => {
                let fact = &self.tail[tail as usize];
                match fact.ground_values() {
                    Some(row) => unindex(&mut self.row_index, &row_hash(&row), index),
                    None => remove_sorted(&mut self.constraint_fact_indices, index),
                }
                for (position, binding) in fact.bindings().iter().enumerate() {
                    match binding {
                        Binding::Bound(value) => {
                            if let Some(by_value) = self.value_index[position].get_mut() {
                                unindex(by_value, value, index);
                            }
                        }
                        Binding::Free => remove_sorted(&mut self.free_index[position], index),
                    }
                }
            }
            Slot::Dead => panic!("the fact at logical index {index} was already removed"),
        }
        self.dead += 1;
    }

    /// Rebuilds the relation from its live facts, in order: the dead slots
    /// and the storage behind them are dropped and the survivors get dense
    /// indices.  Survivors are stored verbatim — no subsumption re-check —
    /// so a narrower fact that was legitimately stored before a broader one
    /// is not silently dropped.  The built value indexes are dropped too;
    /// each is rebuilt on its next probe.
    fn compact(&mut self) {
        let old = std::mem::take(self);
        for fact in old.iter() {
            self.store(fact);
        }
    }

    /// Brings a replica that is one update behind `head` level with it, by
    /// replaying that update's effects instead of re-evaluating it: the
    /// indices it `removed` (as [`Self::remove_indices`] was given them),
    /// then the facts `head` appended afterwards, copied verbatim.  The
    /// partition ends sealed.
    ///
    /// `self` must hold exactly the slots `head` held before the update;
    /// removal keeps indices stable and compacts on counts alone, so it then
    /// holds exactly `head`'s slots again.
    pub fn catch_up(&mut self, removed: Option<&BTreeSet<usize>>, head: &Relation) {
        if let Some(removed) = removed {
            self.remove_indices(removed);
        }
        for index in self.slots.len()..head.slots.len() {
            self.store(head.fact_ref(index));
        }
        self.seal();
        debug_assert_eq!(
            (self.slots.len(), self.dead),
            (head.slots.len(), head.dead),
            "replicas diverged"
        );
    }

    /// Rotates the partition at an iteration boundary: the delta becomes
    /// stable and the pending insertions become the new delta.
    pub fn advance(&mut self) {
        self.stable_end = self.delta_end;
        self.delta_end = self.slots.len();
    }

    /// Quiesces the partition: every stored fact (delta and pending included)
    /// becomes stable, leaving the delta empty.  This is the state a resumed
    /// evaluation starts from — the next [`Self::insert`]s land in pending
    /// and the next [`Self::advance`] makes exactly them the delta.
    pub fn seal(&mut self) {
        self.stable_end = self.slots.len();
        self.delta_end = self.slots.len();
    }

    /// Returns `true` if the delta segment is empty.
    pub fn delta_is_empty(&self) -> bool {
        self.stable_end == self.delta_end
    }

    /// The index range of facts visible through `window`.
    pub fn window_range(&self, window: Window) -> Range<usize> {
        match window {
            Window::Stable => 0..self.stable_end,
            Window::Delta => self.stable_end..self.delta_end,
            Window::Known => 0..self.delta_end,
        }
    }

    /// The facts visible through `window`.
    pub fn window_refs(&self, window: Window) -> impl Iterator<Item = FactRef<'_>> {
        self.candidates(self.window_range(window), None)
            .map(move |index| self.fact_ref(index))
    }

    /// The facts in `window` that can hold `value` at `position`: facts bound
    /// to exactly that value there, followed by the constraint-fact tail of
    /// facts that are free at `position` (their residual constraint decides).
    pub fn probe(
        &self,
        window: Window,
        position: usize,
        value: &Value,
    ) -> impl Iterator<Item = FactRef<'_>> {
        self.candidates(self.window_range(window), Some((position, value)))
            .map(move |index| self.fact_ref(index))
    }

    /// The one candidate enumeration every reader goes through — join steps,
    /// a round's delta candidates, and query answering: the fact
    /// indices inside `range` that can match a literal.  With a `probe`
    /// (an argument position and the value the literal holds there) those
    /// are the facts bound to exactly that value, followed by the
    /// constraint-fact tail of facts free at the position; without one,
    /// every live index of `range` in order (the indexes hold no dead slot,
    /// and the scan tests for one only in a relation that has any).
    pub(crate) fn candidates(
        &self,
        range: Range<usize>,
        probe: Option<(usize, &Value)>,
    ) -> impl Iterator<Item = usize> + '_ {
        let (scan, exact, free) = match probe {
            Some((position, value)) => (
                0..0,
                clip(self.exact_entries(position, value), &range),
                clip(self.free_entries(position), &range),
            ),
            None => (range, &[][..], &[][..]),
        };
        let sparse = self.dead > 0;
        scan.filter(move |&index| !sparse || !matches!(self.slots[index], Slot::Dead))
            .chain(exact.iter().copied())
            .chain(free.iter().copied())
    }

    /// The indices of the facts bound to `value` at `position`, ascending.
    /// The position's index is built here on its first probe, by one scan
    /// of the live slots in logical order.
    fn exact_entries(&self, position: usize, value: &Value) -> &[usize] {
        self.value_index
            .get(position)
            .and_then(|by_value| {
                by_value
                    .get_or_init(|| self.build_value_index(position))
                    .get(value)
            })
            .map_or(&[], Vec::as_slice)
    }

    fn build_value_index(&self, position: usize) -> HashMap<Value, Vec<usize>> {
        let mut by_value: HashMap<Value, Vec<usize>> = HashMap::new();
        for index in self.candidates(0..self.slots.len(), None) {
            if let Some(value) = self.fact_ref(index).bound_value(position) {
                by_value.entry(value.clone()).or_default().push(index);
            }
        }
        by_value
    }

    /// Whether the value index of `position` has been built.
    #[cfg(test)]
    fn value_index_built(&self, position: usize) -> bool {
        self.value_index
            .get(position)
            .is_some_and(|by_value| by_value.get().is_some())
    }

    fn free_entries(&self, position: usize) -> &[usize] {
        self.free_index.get(position).map_or(&[], Vec::as_slice)
    }

    /// Iterates over the facts in logical (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = FactRef<'_>> {
        self.candidates(0..self.slots.len(), None)
            .map(move |index| self.fact_ref(index))
    }

    /// Deterministic estimate of the heap bytes held by the fact storage:
    /// the columnar rows, the full-fact tail, the slot table, and the
    /// row-hash dedup index.  The per-position probe indexes are excluded,
    /// so the number isolates the cost of the fact representation itself.
    pub fn approx_fact_bytes(&self) -> usize {
        use std::mem::size_of;
        let slots = self.slots.len() * size_of::<Slot>();
        let rows = self.ground.values.len() * size_of::<Value>()
            + self
                .ground
                .values
                .iter()
                .map(Value::heap_bytes)
                .sum::<usize>();
        let tail: usize = self.tail.iter().map(Fact::approx_bytes).sum();
        // The row-hash dedup index is part of the storage contract: an
        // 8-byte hash and an 8-byte index per ground tuple.
        let dedup = self
            .row_index
            .values()
            .map(|v| size_of::<u64>() + v.len() * size_of::<usize>())
            .sum::<usize>();
        slots + rows + tail + dedup
    }
}

/// Restricts a sorted index list to the entries inside `range`.
fn clip<'a>(entries: &'a [usize], range: &Range<usize>) -> &'a [usize] {
    let lo = entries.partition_point(|&i| i < range.start);
    let hi = entries.partition_point(|&i| i < range.end);
    &entries[lo..hi]
}

impl std::fmt::Debug for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_constraints::{Atom, Conjunction, Var};

    #[test]
    fn duplicate_ground_facts_are_subsumed() {
        let mut rel = Relation::new();
        let fact = Fact::ground("p", vec![Value::num(1), Value::sym("a")]);
        assert_eq!(rel.insert(fact.clone()), InsertOutcome::Added);
        assert_eq!(rel.insert(fact), InsertOutcome::Subsumed);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.constraint_fact_count(), 0);
    }

    #[test]
    fn constraint_facts_subsume_ground_instances() {
        let mut rel = Relation::new();
        let broad = Fact::constrained(
            "m_fib",
            1,
            Conjunction::of(Atom::var_gt(Var::position(1), 0)),
        )
        .unwrap();
        assert_eq!(rel.insert(broad), InsertOutcome::Added);
        assert_eq!(rel.constraint_fact_count(), 1);
        // A ground instance inside the constraint fact is subsumed.
        let inside = Fact::ground("m_fib", vec![Value::num(3)]);
        assert_eq!(rel.insert(inside), InsertOutcome::Subsumed);
        // A ground fact outside is added.
        let outside = Fact::ground("m_fib", vec![Value::num(0)]);
        assert_eq!(rel.insert(outside), InsertOutcome::Added);
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn ground_facts_do_not_subsume_constraint_facts() {
        let mut rel = Relation::new();
        rel.insert(Fact::ground("m_fib", vec![Value::num(3)]));
        let broad = Fact::constrained(
            "m_fib",
            1,
            Conjunction::of(Atom::var_gt(Var::position(1), 0)),
        )
        .unwrap();
        assert_eq!(rel.insert(broad), InsertOutcome::Added);
    }

    #[test]
    fn windows_track_the_stable_delta_pending_partition() {
        let mut rel = Relation::new();
        rel.insert(Fact::ground("e", vec![Value::num(1)]));
        // Nothing is visible until the first advance.
        assert_eq!(rel.window_refs(Window::Known).count(), 0);
        assert!(rel.delta_is_empty());
        rel.advance();
        assert_eq!(rel.window_refs(Window::Delta).count(), 1);
        assert_eq!(rel.window_refs(Window::Stable).count(), 0);
        rel.insert(Fact::ground("e", vec![Value::num(2)]));
        // The new fact is pending: delta and known are unchanged.
        assert_eq!(rel.window_refs(Window::Delta).count(), 1);
        assert_eq!(rel.window_refs(Window::Known).count(), 1);
        rel.advance();
        assert_eq!(rel.window_refs(Window::Stable).count(), 1);
        assert_eq!(rel.window_refs(Window::Delta).count(), 1);
        assert_eq!(rel.window_refs(Window::Known).count(), 2);
        rel.advance();
        assert!(rel.delta_is_empty());
        assert_eq!(rel.window_refs(Window::Stable).count(), 2);
    }

    #[test]
    fn probe_finds_exact_matches_and_the_constraint_tail() {
        let mut rel = Relation::new();
        rel.insert(Fact::ground("p", vec![Value::sym("a"), Value::num(1)]));
        rel.insert(Fact::ground("p", vec![Value::sym("b"), Value::num(2)]));
        let tail = Fact::new(
            "p".into(),
            vec![Binding::Free, Binding::Bound(Value::num(3))],
            Conjunction::of(Atom::var_le(Var::position(1), 0)),
        )
        .unwrap();
        rel.insert(tail);
        rel.advance();
        // Probing position 1 for `a` sees the exact match plus the free
        // fact.
        let hits: Vec<_> = rel.probe(Window::Delta, 0, &Value::sym("a")).collect();
        assert_eq!(hits.len(), 2);
        // Probing position 2 for 2 sees only the exact match.
        let hits: Vec<_> = rel.probe(Window::Delta, 1, &Value::num(2)).collect();
        assert_eq!(hits.len(), 1);
        // A value nobody holds still yields the constraint-fact tail.
        assert_eq!(rel.probe(Window::Delta, 0, &Value::sym("zzz")).count(), 1);
        // Probes respect windows.
        assert_eq!(rel.probe(Window::Stable, 0, &Value::sym("a")).count(), 0);
    }

    /// `pair(i, i % 3)` rows plus, when `with_tail`, a constraint fact free
    /// at position 0 in the middle of them.
    fn pairs(n: i64, with_tail: bool) -> Relation {
        let mut rel = Relation::new();
        for i in 0..n {
            if with_tail && i == n / 2 {
                rel.insert(tail_fact());
            }
            rel.insert(pair(i));
        }
        rel.seal();
        rel
    }

    fn pair(i: i64) -> Fact {
        Fact::ground("pair", vec![Value::num(i), Value::num(i % 3)])
    }

    /// `pair($1, 7; $1 <= -1)`: subsumes none of the `pair(i, i % 3)` rows.
    fn tail_fact() -> Fact {
        Fact::new(
            "pair".into(),
            vec![Binding::Free, Binding::Bound(Value::num(7))],
            Conjunction::of(Atom::var_le(Var::position(1), -1)),
        )
        .unwrap()
    }

    /// The live facts with their logical indices, as the one enumeration
    /// yields them.
    fn live(rel: &Relation) -> Vec<(usize, String)> {
        rel.candidates(0..rel.slot_count(), None)
            .map(|index| (index, rel.fact_ref(index).to_string()))
            .collect()
    }

    /// Every reader agrees with the scan: each live fact is found under its
    /// own index by the row-hash / equivalence lookup and by a probe on each
    /// of its bound positions, no probe yields an index the scan does not,
    /// and the counts add up.
    fn assert_consistent(rel: &Relation) {
        let live = live(rel);
        assert_eq!(live.len(), rel.len());
        assert_eq!(rel.iter().count(), rel.len());
        assert!(live.windows(2).all(|w| w[0].0 < w[1].0), "{live:?}");
        let indices: BTreeSet<usize> = live.iter().map(|(index, _)| *index).collect();
        let mut constraint_facts = 0;
        for &(index, _) in &live {
            let fact = rel.fact_at(index);
            assert_eq!(rel.find_equivalent(&fact), Some(index), "{fact}");
            match fact.ground_values() {
                Some(row) => assert_eq!(rel.find_row(&row), Some(index), "{fact}"),
                None => constraint_facts += 1,
            }
            for position in 0..fact.arity() {
                let Some(value) = fact.bound_value(position) else {
                    continue;
                };
                let hits: Vec<usize> = rel
                    .candidates(0..rel.slot_count(), Some((position, value)))
                    .collect();
                assert!(hits.contains(&index), "{fact} at {position}: {hits:?}");
                assert!(hits.iter().all(|hit| indices.contains(hit)), "{hits:?}");
                let known = rel.window_range(Window::Known);
                assert_eq!(
                    rel.probe(Window::Known, position, value).count(),
                    hits.iter().filter(|hit| known.contains(hit)).count()
                );
            }
        }
        assert_eq!(rel.constraint_fact_count(), constraint_facts);
    }

    #[test]
    fn removal_is_in_place_and_no_reader_sees_a_dead_slot() {
        for with_tail in [false, true] {
            let mut rel = pairs(10, with_tail);
            let before = live(&rel);
            let doomed = [1usize, 4, 8];
            let removed: BTreeSet<usize> = doomed.into_iter().collect();
            let gone: Vec<Fact> = doomed.iter().map(|&index| rel.fact_at(index)).collect();
            assert_eq!(rel.remove_indices(&removed), 3);
            // Survivors keep their indices and their order; the index space
            // does not shrink.
            let expected: Vec<_> = before
                .iter()
                .filter(|(index, _)| !removed.contains(index))
                .cloned()
                .collect();
            assert_eq!(live(&rel), expected);
            assert_eq!(rel.slot_count(), before.len());
            assert_eq!(rel.len(), before.len() - 3);
            assert_consistent(&rel);
            for fact in &gone {
                assert_eq!(rel.find_equivalent(fact), None, "{fact}");
                if let Some(row) = fact.ground_values() {
                    assert_eq!(rel.find_row(&row), None);
                    // (A probe still yields the constraint fact free there.)
                    assert!(rel
                        .probe(Window::Known, 0, &row[0])
                        .all(|hit| !hit.is_ground()));
                }
            }
            // The partition was sealed over the whole index space.
            assert_eq!(rel.window_range(Window::Stable), 0..before.len());
            assert_eq!(rel.window_refs(Window::Stable).count(), rel.len());
        }
    }

    #[test]
    fn a_removed_row_can_be_inserted_again_as_a_new_pending_fact() {
        let mut rel = pairs(6, true);
        let slots = rel.slot_count();
        let removed: BTreeSet<usize> = [2usize].into_iter().collect();
        let fact = rel.fact_at(2);
        rel.remove_indices(&removed);
        assert_eq!(rel.insert(fact.clone()), InsertOutcome::Added);
        assert_eq!(rel.insert(fact.clone()), InsertOutcome::Subsumed);
        // It took a fresh slot past the sealed ones: pending, then delta.
        assert_eq!(rel.find_equivalent(&fact), Some(slots));
        assert_eq!(rel.window_refs(Window::Known).count(), rel.len() - 1);
        rel.advance();
        let delta: Vec<String> = rel
            .window_refs(Window::Delta)
            .map(|f| f.to_string())
            .collect();
        assert_eq!(delta, vec![fact.to_string()]);
        assert_consistent(&rel);
        // The constraint fact goes and comes back the same way.
        let tail = rel.find_equivalent(&tail_fact()).expect("stored");
        rel.remove_indices(&[tail].into_iter().collect());
        assert_eq!(rel.constraint_fact_count(), 0);
        assert_eq!(rel.free_entries(0), &[] as &[usize]);
        assert_eq!(rel.insert(tail_fact()), InsertOutcome::Added);
        assert_consistent(&rel);
    }

    #[test]
    fn compaction_renumbers_the_survivors_in_order_and_rebuilds_every_index() {
        for with_tail in [false, true] {
            let mut rel = pairs(10, with_tail);
            let total = rel.slot_count();
            // One short of the threshold: dead == live is not yet compacted.
            let half: BTreeSet<usize> = (0..total / 2).collect();
            rel.remove_indices(&half);
            let expected: Vec<String> = live(&rel).into_iter().map(|(_, fact)| fact).collect();
            if total % 2 == 0 {
                assert_eq!(rel.slot_count(), total, "dead == live keeps the slots");
            }
            // One more removal tips it over: the survivors are renumbered
            // densely, in order.
            let first = live(&rel)[0].0;
            rel.remove_indices(&[first].into_iter().collect());
            assert_eq!(rel.slot_count(), rel.len());
            let after = live(&rel);
            assert_eq!(
                after,
                expected[1..]
                    .iter()
                    .cloned()
                    .enumerate()
                    .collect::<Vec<_>>()
            );
            assert_eq!(rel.window_range(Window::Stable), 0..rel.len());
            assert_consistent(&rel);
            // Emptying the relation compacts it to nothing, and it fills up
            // again from index 0.
            let rest: BTreeSet<usize> = (0..rel.slot_count()).collect();
            rel.remove_indices(&rest);
            assert_eq!((rel.len(), rel.slot_count()), (0, 0));
            assert!(rel.is_empty());
            assert_eq!(rel.insert(pair(3)), InsertOutcome::Added);
            assert_eq!(rel.find_equivalent(&pair(3)), Some(0));
            assert_consistent(&rel);
        }
    }

    #[test]
    fn a_replica_catches_up_by_replaying_removals_and_copying_appended_facts() {
        // Two copies of one relation; `head` takes each update for real
        // (remove, then insert with subsumption), the replica replays it a
        // step later.  Long enough to compact more than once.
        let mut head = pairs(12, true);
        let mut replica = head.clone();
        let mut compactions = 0;
        for step in 0..40i64 {
            let removed: BTreeSet<usize> = live(&head)
                .iter()
                .map(|(index, _)| *index)
                .filter(|index| (index + step as usize) % 3 == 0)
                .take(3)
                .collect();
            let slots = head.slot_count();
            head.remove_indices(&removed);
            compactions += usize::from(head.slot_count() < slots);
            // A fresh row, a row that may have been removed earlier, and now
            // and then the constraint fact.
            head.insert(pair(100 + step));
            head.insert(pair(step % 12));
            if step % 7 == 0 {
                head.insert(tail_fact());
            }
            head.seal();
            replica.catch_up(Some(&removed), &head);
            assert_eq!(live(&replica), live(&head), "step {step}");
            assert_consistent(&replica);
        }
        assert!(compactions >= 2, "{compactions}");
    }

    #[test]
    fn a_position_is_indexed_on_its_first_probe_only() {
        let mut rel = pairs(10, true);
        assert!(!rel.value_index_built(0) && !rel.value_index_built(1));
        // Scans, subsumption checks and removals build nothing.
        assert_eq!(rel.insert(pair(3)), InsertOutcome::Subsumed);
        assert_eq!(rel.window_refs(Window::Known).count(), rel.len());
        rel.remove_indices(&[2usize].into_iter().collect());
        assert!(!rel.value_index_built(0) && !rel.value_index_built(1));
        // `pair(5, 2)` and `pair(8, 2)`: `pair(2, 2)` was removed.
        assert_eq!(rel.probe(Window::Known, 1, &Value::num(2)).count(), 2);
        assert!(rel.value_index_built(1) && !rel.value_index_built(0));
        // From then on inserts maintain it; a compaction drops it.
        rel.insert(pair(11));
        rel.seal();
        assert_eq!(rel.probe(Window::Known, 1, &Value::num(2)).count(), 3);
        let doomed: BTreeSet<usize> = live(&rel).iter().map(|(i, _)| *i).take(7).collect();
        rel.remove_indices(&doomed);
        assert!(!rel.value_index_built(1));
        assert_consistent(&rel);
    }

    /// What a probe must yield, by a filter over the window: the facts
    /// bound to `value` at `position`, then the facts free there.
    fn filtered(rel: &Relation, window: Window, position: usize, value: &Value) -> Vec<String> {
        let bound = rel
            .window_refs(window)
            .filter(|fact| fact.bound_value(position) == Some(value));
        let free = rel
            .window_refs(window)
            .filter(|fact| fact.bound_value(position).is_none());
        bound.chain(free).map(|fact| fact.to_string()).collect()
    }

    /// Random interleavings of inserts, partition moves, removals (enough
    /// to compact), clones and replica catch-ups: every probe yields
    /// exactly what the filter yields, in the same order, whichever
    /// positions happened to be indexed before.
    #[test]
    fn lazy_indexes_probe_exactly_like_a_filter() {
        use proptest::prelude::Strategy as _;
        use proptest::test_runner::TestRng;

        let ops = proptest::collection::vec((0u8..12, 0i64..5, 0i64..5, 0i64..5, 0u64..64), 20..90);
        let windows = [Window::Stable, Window::Delta, Window::Known];
        let predicate = Pred::new("t");
        let mut compactions = 0;
        for case in 0..300 {
            let mut rng = TestRng::for_case(case);
            let mut rel = Relation::new();
            for (op, a, b, c, pick) in ops.generate(&mut rng) {
                let row = vec![Value::num(a), Value::num(b), Value::num(c)];
                let live: Vec<usize> = live(&rel).into_iter().map(|(i, _)| i).collect();
                // Roughly half of the live facts, chosen by `pick`.
                let some: BTreeSet<usize> = live
                    .iter()
                    .copied()
                    .filter(|i| (i ^ pick as usize) % 2 == 0)
                    .collect();
                match op {
                    0..=4 => {
                        rel.insert_row(&predicate, row);
                    }
                    5 => {
                        let fact = Fact::new(
                            predicate.clone(),
                            vec![Binding::Free, Binding::Bound(Value::num(b)), Binding::Free],
                            Conjunction::of(Atom::var_le(Var::position(1), a - 2)),
                        )
                        .unwrap();
                        rel.insert(fact);
                    }
                    6 => rel.advance(),
                    7 => rel.seal(),
                    8 => {
                        let slots = rel.slot_count();
                        rel.remove_indices(&some);
                        compactions += usize::from(rel.slot_count() < slots);
                    }
                    9 => rel = rel.clone(),
                    _ => {
                        // A replica one update behind catches up with it.
                        rel.seal();
                        let mut replica = rel.clone();
                        let _ = replica.probe(Window::Known, b as usize % 3, &Value::num(c));
                        rel.remove_indices(&some);
                        rel.insert_row(&predicate, row);
                        rel.seal();
                        replica.catch_up(Some(&some), &rel);
                        rel = replica;
                    }
                }
                let window = windows[pick as usize % 3];
                let position = (pick as usize / 3) % 3;
                let value = Value::num(c);
                let probed: Vec<String> = rel
                    .probe(window, position, &value)
                    .map(|fact| fact.to_string())
                    .collect();
                assert_eq!(
                    probed,
                    filtered(&rel, window, position, &value),
                    "case {case}: {window:?} ${} = {value}",
                    position + 1
                );
            }
        }
        assert!(compactions > 100, "{compactions}");
    }

    #[test]
    fn mixed_predicates_fall_back_to_the_tail() {
        // A relation is keyed by predicate in practice, but nothing enforces
        // it; rows that do not fit the adopted store shape take the slow
        // path and stay fully correct.
        let mut rel = Relation::new();
        rel.insert(Fact::ground("p", vec![Value::num(1)]));
        rel.insert(Fact::ground("q", vec![Value::num(1), Value::num(2)]));
        rel.insert(Fact::ground("p", vec![Value::num(2)]));
        assert_eq!(rel.len(), 3);
        assert_eq!(
            rel.find_equivalent(&Fact::ground("q", vec![Value::num(1), Value::num(2)])),
            Some(1)
        );
        let shown: Vec<String> = rel.iter().map(|f| f.to_string()).collect();
        assert_eq!(shown, vec!["p(1)", "q(1, 2)", "p(2)"]);
    }
}
