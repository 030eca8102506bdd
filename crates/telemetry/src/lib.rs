//! Process-wide telemetry registry for the pushing-constraint-selections
//! stack.
//!
//! The registry is a fixed set of enum-indexed atomics — counters, per-phase
//! monotonic timers, fixed-bucket latency histograms, and gauges — so
//! recording never allocates.  Hot-path counters ([`bump`]) accumulate in
//! plain thread-local cells and are folded into the shared atomics by
//! [`flush_thread`], keeping the engine's inner join loops free of shared
//! cache-line traffic; everything else writes the shared atomics directly
//! with relaxed ordering.
//!
//! Recording is gated by a global [`TelemetryMode`], initialised lazily from
//! `PCS_TELEMETRY` (`off` | `on` | `trace`, default `off`) and overridable
//! with [`set_mode`].  When the mode is [`TelemetryMode::Off`] every
//! recording entry point returns after a single relaxed load, so a disabled
//! build pays no measurable cost.  [`TelemetryMode::Trace`] additionally
//! emits JSON-lines span events to the file named by `PCS_TRACE_JSON`.
//!
//! Two render surfaces read the registry: [`render_table`] (the shell's
//! `.metrics` command) and [`render_prometheus`] (`.metrics prom`, a
//! Prometheus-style text exposition).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// How much the registry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryMode {
    /// Record nothing; every entry point is a single relaxed load.
    Off,
    /// Record counters, timers, histograms, and gauges.
    On,
    /// Like `On`, plus JSON-lines span events to `PCS_TRACE_JSON`.
    Trace,
}

const MODE_UNSET: u8 = u8::MAX;
static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

impl TelemetryMode {
    /// Parses the `PCS_TELEMETRY` value; `None` for an unrecognised one.
    fn parse(value: &str) -> Option<Self> {
        match value.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "false" | "no" => Some(Self::Off),
            "on" | "1" | "true" | "yes" => Some(Self::On),
            "trace" => Some(Self::Trace),
            _ => None,
        }
    }

    fn from_u8(value: u8) -> Self {
        match value {
            1 => Self::On,
            2 => Self::Trace,
            _ => Self::Off,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Self::Off => 0,
            Self::On => 1,
            Self::Trace => 2,
        }
    }

    /// Lower-case name, as accepted by `PCS_TELEMETRY`.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::On => "on",
            Self::Trace => "trace",
        }
    }
}

/// The current global mode, initialised from `PCS_TELEMETRY` on first use.
///
/// An unrecognised value warns on stderr (matching the engine's env-toggle
/// idiom) and falls back to `off`.
pub fn mode() -> TelemetryMode {
    let raw = MODE.load(Ordering::Relaxed);
    if raw != MODE_UNSET {
        return TelemetryMode::from_u8(raw);
    }
    let parsed = match std::env::var("PCS_TELEMETRY") {
        Ok(value) => TelemetryMode::parse(&value).unwrap_or_else(|| {
            eprintln!(
                "warning: invalid PCS_TELEMETRY value {value:?} (expected off|on|trace); \
                 using off"
            );
            TelemetryMode::Off
        }),
        Err(_) => TelemetryMode::Off,
    };
    MODE.store(parsed.as_u8(), Ordering::Relaxed);
    parsed
}

/// Overrides the global mode (tests, experiments, service flags).
pub fn set_mode(mode: TelemetryMode) {
    MODE.store(mode.as_u8(), Ordering::Relaxed);
}

/// `true` when the registry records at all (mode is `on` or `trace`).
#[inline]
pub fn enabled() -> bool {
    mode() != TelemetryMode::Off
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// The fixed counter catalog.
///
/// Engine counters (`IndexProbes` … `FmSatCalls`) are bumped via the
/// thread-local fast path and become visible after [`flush_thread`]; service
/// counters are added directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Hash-index probe operations issued by the join executor.
    IndexProbes = 0,
    /// Probed or scanned candidate facts that extended a partial match.
    ProbeHits,
    /// Probed or scanned candidate facts that failed to match.
    ProbeMisses,
    /// Existence (semi-join) shortcuts that cut a scan short.
    ExistenceShortcuts,
    /// Subsumption checks performed on insert (`Relation::covers`).
    SubsumptionChecks,
    /// Fourier–Motzkin satisfiability calls made by the engine.
    FmSatCalls,
    /// Static join plans compiled (`pcs_engine::ProgramPlans::compile`).
    PlansCompiled,
    /// Queries answered by the service layer.
    Queries,
    /// Update batches applied by the service layer.
    Updates,
    /// Update batches that rode along in another batch's evaluation pass
    /// (server-side coalescing): of a group of N concurrently queued
    /// batches applied as one epoch, N−1 count here.
    CoalescedUpdates,
    /// Times a session's writer had to copy the published replica (database
    /// and materialization) because it had none of its own to reclaim: once
    /// per session that takes updates, plus once per update that found a
    /// reader still holding the retired replica or followed a leader that
    /// lost its own.
    EpochClones,
    /// Queries slower than the `PCS_SLOW_QUERY_MS` threshold.
    SlowQueries,
}

/// Number of counters in [`Counter`].
pub const COUNTER_COUNT: usize = 12;

/// All counters with their snake_case names, in catalog order.
pub const COUNTERS: [(Counter, &str); COUNTER_COUNT] = [
    (Counter::IndexProbes, "index_probes"),
    (Counter::ProbeHits, "probe_hits"),
    (Counter::ProbeMisses, "probe_misses"),
    (Counter::ExistenceShortcuts, "existence_shortcuts"),
    (Counter::SubsumptionChecks, "subsumption_checks"),
    (Counter::FmSatCalls, "fm_sat_calls"),
    (Counter::PlansCompiled, "plans_compiled"),
    (Counter::Queries, "queries"),
    (Counter::Updates, "updates"),
    (Counter::CoalescedUpdates, "coalesced_updates"),
    (Counter::EpochClones, "epoch_clones"),
    (Counter::SlowQueries, "slow_queries"),
];

#[allow(clippy::declare_interior_mutable_const)]
const COUNTER_CELL_INIT: AtomicU64 = AtomicU64::new(0);

static COUNTER_CELLS: [AtomicU64; COUNTER_COUNT] = [COUNTER_CELL_INIT; COUNTER_COUNT];

thread_local! {
    static LOCAL_COUNTS: [Cell<u64>; COUNTER_COUNT] =
        std::array::from_fn(|_| Cell::new(0));
}

/// Increments a counter on the thread-local fast path (no-op when disabled).
///
/// The increment becomes globally visible at the next [`flush_thread`] on
/// this thread.
#[inline]
pub fn bump(counter: Counter) {
    bump_by(counter, 1);
}

/// Adds `n` to a counter on the thread-local fast path (no-op when
/// disabled).
#[inline]
pub fn bump_by(counter: Counter, n: u64) {
    if !enabled() {
        return;
    }
    LOCAL_COUNTS.with(|cells| {
        let cell = &cells[counter as usize];
        cell.set(cell.get().wrapping_add(n));
    });
}

/// Folds this thread's local counter cells into the shared registry.
///
/// The engine calls this once at the end of every evaluation, on the thread
/// that ran it, so inner join loops touch only thread-local memory.
pub fn flush_thread() {
    LOCAL_COUNTS.with(|cells| {
        for (index, cell) in cells.iter().enumerate() {
            let value = cell.take();
            if value > 0 {
                COUNTER_CELLS[index].fetch_add(value, Ordering::Relaxed);
            }
        }
    });
}

/// Adds `n` directly to the shared counter (no-op when disabled); for cold
/// paths that may not flush (service layer, one-shot events).
pub fn add(counter: Counter, n: u64) {
    if !enabled() {
        return;
    }
    COUNTER_CELLS[counter as usize].fetch_add(n, Ordering::Relaxed);
}

/// Current value of a shared counter (thread-local cells not yet flushed are
/// invisible).
pub fn counter(counter: Counter) -> u64 {
    COUNTER_CELLS[counter as usize].load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Phase timers
// ---------------------------------------------------------------------------

/// The evaluation phases timed by the engine and optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Static analysis (`pcs-analysis` passes) during `optimize()`.
    Analyze = 0,
    /// Constraint/magic rewriting during `optimize()`.
    Rewrite,
    /// Static join-plan compilation (`Evaluator::new`).
    PlanCompile,
    /// The from-scratch semi-naive fixpoint.
    Fixpoint,
    /// A resumed fixpoint over an update delta.
    Resume,
    /// A DRed-style retraction (over-delete + re-derive + resume).
    Retract,
}

/// Number of phases in [`Phase`].
pub const PHASE_COUNT: usize = 6;

/// All phases with their snake_case names, in catalog order.
pub const PHASES: [(Phase, &str); PHASE_COUNT] = [
    (Phase::Analyze, "analyze"),
    (Phase::Rewrite, "rewrite"),
    (Phase::PlanCompile, "plan_compile"),
    (Phase::Fixpoint, "fixpoint"),
    (Phase::Resume, "resume"),
    (Phase::Retract, "retract"),
];

struct PhaseCell {
    count: AtomicU64,
    total_nanos: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const PHASE_CELL_INIT: PhaseCell = PhaseCell {
    count: AtomicU64::new(0),
    total_nanos: AtomicU64::new(0),
};

static PHASE_CELLS: [PhaseCell; PHASE_COUNT] = [PHASE_CELL_INIT; PHASE_COUNT];

/// Records one completed span of `phase` lasting `nanos`; the gate is
/// [`span`], which only arms a span while the registry is enabled.  Trace
/// emission additionally requires [`TelemetryMode::Trace`].
fn record_phase(phase: Phase, nanos: u64) {
    let cell = &PHASE_CELLS[phase as usize];
    cell.count.fetch_add(1, Ordering::Relaxed);
    cell.total_nanos.fetch_add(nanos, Ordering::Relaxed);
    if mode() == TelemetryMode::Trace {
        trace_span(phase_name(phase), nanos);
    }
}

/// `(count, total nanoseconds)` recorded for a phase so far.
pub fn phase_totals(phase: Phase) -> (u64, u64) {
    let cell = &PHASE_CELLS[phase as usize];
    (
        cell.count.load(Ordering::Relaxed),
        cell.total_nanos.load(Ordering::Relaxed),
    )
}

fn phase_name(phase: Phase) -> &'static str {
    PHASES[phase as usize].1
}

/// An in-flight phase timer; records into the registry when dropped.
///
/// A disarmed span (from [`span`] while the registry is off) holds no state
/// and drops for free.
#[must_use = "a span records its phase when dropped"]
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            record_phase(self.phase, nanos);
        }
    }
}

/// Starts a span for `phase` if the registry is enabled.
pub fn span(phase: Phase) -> Span {
    Span {
        phase,
        start: enabled().then(Instant::now),
    }
}

// ---------------------------------------------------------------------------
// Trace (JSON-lines span events)
// ---------------------------------------------------------------------------

static TRACE_FILE: OnceLock<Option<Mutex<File>>> = OnceLock::new();
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

fn trace_span(phase: &str, nanos: u64) {
    let Some(file) = TRACE_FILE
        .get_or_init(|| {
            let path = std::env::var("PCS_TRACE_JSON").ok()?;
            match OpenOptions::new().create(true).append(true).open(&path) {
                Ok(file) => Some(Mutex::new(file)),
                Err(err) => {
                    eprintln!("warning: cannot open PCS_TRACE_JSON file {path:?}: {err}");
                    None
                }
            }
        })
        .as_ref()
    else {
        return;
    };
    let seq = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
    let line =
        format!("{{\"event\":\"span\",\"phase\":\"{phase}\",\"nanos\":{nanos},\"seq\":{seq}}}\n");
    if let Ok(mut file) = file.lock() {
        let _ = file.write_all(line.as_bytes());
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// The fixed latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// End-to-end session query latency.
    QueryLatency = 0,
    /// End-to-end session update-batch latency.
    UpdateLatency,
}

/// Number of histograms in [`Hist`].
pub const HIST_COUNT: usize = 2;

/// All histograms with their snake_case names, in catalog order.
pub const HISTS: [(Hist, &str); HIST_COUNT] = [
    (Hist::QueryLatency, "query_latency"),
    (Hist::UpdateLatency, "update_latency"),
];

/// Inclusive upper bounds (nanoseconds) of the finite histogram buckets;
/// observations above the last bound land in the overflow bucket.
///
/// The 1-2-5-style ladder keeps percentile estimates
/// ([`HistSnapshot::percentile_nanos`]) within roughly a 2–2.5× bound-ratio
/// of the truth across the microsecond-to-minute range the service sees.
pub const BUCKET_BOUNDS_NANOS: [u64; 16] = [
    10_000,         // 10µs
    25_000,         // 25µs
    50_000,         // 50µs
    100_000,        // 100µs
    250_000,        // 250µs
    500_000,        // 500µs
    1_000_000,      // 1ms
    2_500_000,      // 2.5ms
    5_000_000,      // 5ms
    10_000_000,     // 10ms
    25_000_000,     // 25ms
    100_000_000,    // 100ms
    1_000_000_000,  // 1s
    10_000_000_000, // 10s
    30_000_000_000, // 30s
    60_000_000_000, // 60s
];

/// Total bucket count: the finite buckets plus the overflow bucket.
pub const BUCKET_COUNT: usize = BUCKET_BOUNDS_NANOS.len() + 1;

/// The finite bucket whose bound is the first `>= nanos`, or the overflow
/// bucket index (`BUCKET_COUNT - 1`).
pub fn bucket_index(nanos: u64) -> usize {
    BUCKET_BOUNDS_NANOS
        .iter()
        .position(|bound| nanos <= *bound)
        .unwrap_or(BUCKET_BOUNDS_NANOS.len())
}

struct HistCell {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const HIST_BUCKET_INIT: AtomicU64 = AtomicU64::new(0);

#[allow(clippy::declare_interior_mutable_const)]
const HIST_CELL_INIT: HistCell = HistCell {
    buckets: [HIST_BUCKET_INIT; BUCKET_COUNT],
    sum_nanos: AtomicU64::new(0),
    count: AtomicU64::new(0),
};

static HIST_CELLS: [HistCell; HIST_COUNT] = [HIST_CELL_INIT; HIST_COUNT];

/// Records one observation of `nanos` into a histogram (no-op when
/// disabled).
pub fn observe(hist: Hist, nanos: u64) {
    if !enabled() {
        return;
    }
    let cell = &HIST_CELLS[hist as usize];
    cell.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
    cell.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    cell.count.fetch_add(1, Ordering::Relaxed);
}

/// A read-only copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (last entry is the overflow bucket).
    pub buckets: [u64; BUCKET_COUNT],
    /// Sum of all observed values, in nanoseconds.
    pub sum_nanos: u64,
    /// Total number of observations.
    pub count: u64,
}

impl HistSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) of the observations in
    /// nanoseconds by linear interpolation inside the bucket holding the
    /// quantile rank; `None` for an empty histogram.
    ///
    /// Observations that landed in the overflow bucket are reported as the
    /// last finite bound (the estimate saturates rather than extrapolating
    /// past what the histogram can resolve).
    pub fn percentile_nanos(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // The 1-based rank of the quantile observation.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, observed) in self.buckets.iter().enumerate() {
            if *observed == 0 {
                continue;
            }
            if seen + observed >= rank {
                let upper = if index < BUCKET_BOUNDS_NANOS.len() {
                    BUCKET_BOUNDS_NANOS[index]
                } else {
                    return Some(BUCKET_BOUNDS_NANOS[BUCKET_BOUNDS_NANOS.len() - 1]);
                };
                let lower = if index == 0 {
                    0
                } else {
                    BUCKET_BOUNDS_NANOS[index - 1]
                };
                // Interpolate the rank's position within this bucket.
                let into = (rank - seen) as f64 / *observed as f64;
                return Some(lower + ((upper - lower) as f64 * into) as u64);
            }
            seen += observed;
        }
        Some(BUCKET_BOUNDS_NANOS[BUCKET_BOUNDS_NANOS.len() - 1])
    }

    /// The standard serving percentiles `(p50, p95, p99)` in nanoseconds;
    /// `None` for an empty histogram.
    pub fn percentiles(&self) -> Option<(u64, u64, u64)> {
        Some((
            self.percentile_nanos(0.50)?,
            self.percentile_nanos(0.95)?,
            self.percentile_nanos(0.99)?,
        ))
    }
}

/// Snapshots a histogram's current buckets, sum, and count.
pub fn hist_snapshot(hist: Hist) -> HistSnapshot {
    let cell = &HIST_CELLS[hist as usize];
    HistSnapshot {
        buckets: std::array::from_fn(|i| cell.buckets[i].load(Ordering::Relaxed)),
        sum_nanos: cell.sum_nanos.load(Ordering::Relaxed),
        count: cell.count.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------------

/// The fixed gauge catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Update batches currently queued on or holding the session's update
    /// lock.
    UpdateQueueDepth = 0,
    /// Epochs the last completed query's snapshot trailed the session head
    /// by at the time it finished.
    EpochLag,
}

/// Number of gauges in [`Gauge`].
pub const GAUGE_COUNT: usize = 2;

/// All gauges with their snake_case names, in catalog order.
pub const GAUGES: [(Gauge, &str); GAUGE_COUNT] = [
    (Gauge::UpdateQueueDepth, "update_queue_depth"),
    (Gauge::EpochLag, "epoch_lag"),
];

static GAUGE_CELLS: [AtomicI64; GAUGE_COUNT] = [AtomicI64::new(0), AtomicI64::new(0)];

/// Adds `delta` (possibly negative) to a gauge.
///
/// Not gated on the mode: gauges track live state (queue depth), and a
/// gated decrement after an ungated increment would wedge the value.  The
/// service gates the *pair* of calls on [`enabled`] instead.
pub fn gauge_add(gauge: Gauge, delta: i64) {
    GAUGE_CELLS[gauge as usize].fetch_add(delta, Ordering::Relaxed);
}

/// Sets a gauge to an absolute value (no-op when disabled).
pub fn gauge_set(gauge: Gauge, value: i64) {
    if !enabled() {
        return;
    }
    GAUGE_CELLS[gauge as usize].store(value, Ordering::Relaxed);
}

/// Current value of a gauge.
pub fn gauge(gauge: Gauge) -> i64 {
    GAUGE_CELLS[gauge as usize].load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

const SLOW_LOG_CAPACITY: usize = 16;
static SLOW_LOG: OnceLock<Mutex<VecDeque<(String, u64)>>> = OnceLock::new();
static SLOW_THRESHOLD_NANOS: AtomicU64 = AtomicU64::new(u64::MAX);

const SLOW_THRESHOLD_UNSET: u64 = u64::MAX;
const SLOW_THRESHOLD_DEFAULT_MS: u64 = 500;

/// The slow-query threshold in nanoseconds, from `PCS_SLOW_QUERY_MS`
/// (default 500ms).
pub fn slow_query_threshold_nanos() -> u64 {
    let cached = SLOW_THRESHOLD_NANOS.load(Ordering::Relaxed);
    if cached != SLOW_THRESHOLD_UNSET {
        return cached;
    }
    let millis = match std::env::var("PCS_SLOW_QUERY_MS") {
        Ok(value) => value.trim().parse::<u64>().unwrap_or_else(|_| {
            eprintln!(
                "warning: invalid PCS_SLOW_QUERY_MS value {value:?} (expected milliseconds); \
                 using {SLOW_THRESHOLD_DEFAULT_MS}"
            );
            SLOW_THRESHOLD_DEFAULT_MS
        }),
        Err(_) => SLOW_THRESHOLD_DEFAULT_MS,
    };
    let nanos = millis.saturating_mul(1_000_000);
    SLOW_THRESHOLD_NANOS.store(nanos, Ordering::Relaxed);
    nanos
}

/// Overrides the slow-query threshold (tests).
pub fn set_slow_query_threshold_nanos(nanos: u64) {
    SLOW_THRESHOLD_NANOS.store(nanos, Ordering::Relaxed);
}

/// Records a query that crossed the slow threshold: bumps
/// [`Counter::SlowQueries`] and appends `(text, nanos)` to a bounded
/// most-recent log.
pub fn slow_query(text: &str, nanos: u64) {
    if !enabled() {
        return;
    }
    add(Counter::SlowQueries, 1);
    let log = SLOW_LOG.get_or_init(|| Mutex::new(VecDeque::new()));
    if let Ok(mut log) = log.lock() {
        if log.len() == SLOW_LOG_CAPACITY {
            log.pop_front();
        }
        log.push_back((text.to_string(), nanos));
    }
}

/// The most recent slow queries, oldest first.
pub fn slow_queries() -> Vec<(String, u64)> {
    SLOW_LOG
        .get()
        .and_then(|log| log.lock().ok())
        .map(|log| log.iter().cloned().collect())
        .unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Reset (tests and experiments)
// ---------------------------------------------------------------------------

/// Zeroes every counter, phase timer, histogram, gauge, and the slow-query
/// log (the mode and thresholds are left alone).  Thread-local cells on
/// *other* threads are untouched; flush them first if their counts matter.
pub fn reset() {
    LOCAL_COUNTS.with(|cells| {
        for cell in cells {
            cell.set(0);
        }
    });
    for cell in &COUNTER_CELLS {
        cell.store(0, Ordering::Relaxed);
    }
    for cell in &PHASE_CELLS {
        cell.count.store(0, Ordering::Relaxed);
        cell.total_nanos.store(0, Ordering::Relaxed);
    }
    for cell in &HIST_CELLS {
        for bucket in &cell.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        cell.sum_nanos.store(0, Ordering::Relaxed);
        cell.count.store(0, Ordering::Relaxed);
    }
    for cell in &GAUGE_CELLS {
        cell.store(0, Ordering::Relaxed);
    }
    if let Some(log) = SLOW_LOG.get() {
        if let Ok(mut log) = log.lock() {
            log.clear();
        }
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

fn bound_label(index: usize) -> String {
    if index < BUCKET_BOUNDS_NANOS.len() {
        format!("<={}", format_nanos(BUCKET_BOUNDS_NANOS[index]))
    } else {
        "overflow".to_string()
    }
}

/// Renders the whole registry as a human-readable table (the shell's
/// `.metrics` command).
pub fn render_table() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "telemetry: {}", mode().as_str());
    let _ = writeln!(out, "counters:");
    for (counter_id, name) in COUNTERS {
        let _ = writeln!(out, "  {:<21} {}", name, counter(counter_id));
    }
    let _ = writeln!(out, "phases:");
    for (phase_id, name) in PHASES {
        let (count, nanos) = phase_totals(phase_id);
        let _ = writeln!(
            out,
            "  {:<21} count={} total={}",
            name,
            count,
            format_nanos(nanos)
        );
    }
    let _ = writeln!(out, "histograms:");
    for (hist_id, name) in HISTS {
        let snap = hist_snapshot(hist_id);
        match snap.percentiles() {
            Some((p50, p95, p99)) => {
                let _ = writeln!(
                    out,
                    "  {:<21} count={} sum={} p50={} p95={} p99={}",
                    name,
                    snap.count,
                    format_nanos(snap.sum_nanos),
                    format_nanos(p50),
                    format_nanos(p95),
                    format_nanos(p99)
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {:<21} count={} sum={}",
                    name,
                    snap.count,
                    format_nanos(snap.sum_nanos)
                );
            }
        }
        for (index, observed) in snap.buckets.iter().enumerate() {
            if *observed > 0 {
                let _ = writeln!(out, "    {:<12} {}", bound_label(index), observed);
            }
        }
    }
    let _ = writeln!(out, "gauges:");
    for (gauge_id, name) in GAUGES {
        let _ = writeln!(out, "  {:<21} {}", name, gauge(gauge_id));
    }
    let threshold = slow_query_threshold_nanos();
    let _ = writeln!(out, "slow queries (threshold {}):", format_nanos(threshold));
    let slow = slow_queries();
    if slow.is_empty() {
        let _ = writeln!(out, "  none");
    } else {
        for (text, nanos) in slow {
            let _ = writeln!(out, "  {} {}", format_nanos(nanos), text);
        }
    }
    out
}

/// Renders the registry in the Prometheus text exposition format
/// (`.metrics prom`).
pub fn render_prometheus() -> String {
    let mut out = String::new();
    for (counter_id, name) in COUNTERS {
        let _ = writeln!(out, "# TYPE pcs_{name}_total counter");
        let _ = writeln!(out, "pcs_{name}_total {}", counter(counter_id));
    }
    let _ = writeln!(out, "# TYPE pcs_phase_seconds_total counter");
    for (phase_id, name) in PHASES {
        let (count, nanos) = phase_totals(phase_id);
        let _ = writeln!(
            out,
            "pcs_phase_seconds_total{{phase=\"{name}\"}} {:.9}",
            nanos as f64 / 1e9
        );
        let _ = writeln!(out, "pcs_phase_spans_total{{phase=\"{name}\"}} {count}");
    }
    for (hist_id, name) in HISTS {
        let snap = hist_snapshot(hist_id);
        let _ = writeln!(out, "# TYPE pcs_{name}_seconds histogram");
        let mut cumulative = 0u64;
        for (index, observed) in snap.buckets.iter().enumerate() {
            cumulative += observed;
            if index < BUCKET_BOUNDS_NANOS.len() {
                let _ = writeln!(
                    out,
                    "pcs_{name}_seconds_bucket{{le=\"{}\"}} {cumulative}",
                    BUCKET_BOUNDS_NANOS[index] as f64 / 1e9
                );
            } else {
                let _ = writeln!(out, "pcs_{name}_seconds_bucket{{le=\"+Inf\"}} {cumulative}");
            }
        }
        let _ = writeln!(
            out,
            "pcs_{name}_seconds_sum {:.9}",
            snap.sum_nanos as f64 / 1e9
        );
        let _ = writeln!(out, "pcs_{name}_seconds_count {}", snap.count);
    }
    for (gauge_id, name) in GAUGES {
        let _ = writeln!(out, "# TYPE pcs_{name} gauge");
        let _ = writeln!(out, "pcs_{name} {}", gauge(gauge_id));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_registry<T>(test: impl FnOnce() -> T) -> T {
        // The registry is process-global and `cargo test` runs tests on
        // threads of one process: serialize registry-touching tests.
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_mode(TelemetryMode::On);
        reset();
        let result = test();
        reset();
        set_mode(TelemetryMode::Off);
        result
    }

    #[test]
    fn mode_parsing_accepts_documented_values() {
        assert_eq!(TelemetryMode::parse("off"), Some(TelemetryMode::Off));
        assert_eq!(TelemetryMode::parse("ON"), Some(TelemetryMode::On));
        assert_eq!(TelemetryMode::parse(" trace "), Some(TelemetryMode::Trace));
        assert_eq!(TelemetryMode::parse("verbose"), None);
    }

    #[test]
    fn bucket_zero_lands_in_first_bucket() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
    }

    #[test]
    fn bucket_bound_is_inclusive() {
        for (index, bound) in BUCKET_BOUNDS_NANOS.iter().enumerate() {
            assert_eq!(bucket_index(*bound), index, "bound {bound} inclusive");
            assert_eq!(bucket_index(*bound + 1), index + 1, "bound {bound} + 1");
        }
    }

    #[test]
    fn bucket_max_lands_in_overflow() {
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(
            bucket_index(BUCKET_BOUNDS_NANOS[BUCKET_BOUNDS_NANOS.len() - 1] + 1),
            BUCKET_COUNT - 1
        );
    }

    #[test]
    fn observe_accumulates_sum_count_and_buckets() {
        with_registry(|| {
            observe(Hist::QueryLatency, 0);
            observe(Hist::QueryLatency, 5_000);
            observe(Hist::QueryLatency, 2_000_000);
            observe(Hist::QueryLatency, u64::MAX);
            let snap = hist_snapshot(Hist::QueryLatency);
            assert_eq!(snap.count, 4);
            assert_eq!(snap.buckets[0], 2);
            assert_eq!(snap.buckets[bucket_index(2_000_000)], 1);
            assert_eq!(snap.buckets[BUCKET_COUNT - 1], 1);
            assert_eq!(
                snap.sum_nanos,
                0u64.wrapping_add(5_000)
                    .wrapping_add(2_000_000)
                    .wrapping_add(u64::MAX)
            );
        });
    }

    #[test]
    fn bump_is_invisible_until_flushed() {
        with_registry(|| {
            bump(Counter::IndexProbes);
            bump_by(Counter::IndexProbes, 4);
            assert_eq!(counter(Counter::IndexProbes), 0);
            flush_thread();
            assert_eq!(counter(Counter::IndexProbes), 5);
            flush_thread();
            assert_eq!(counter(Counter::IndexProbes), 5);
        });
    }

    #[test]
    fn disabled_mode_records_nothing() {
        with_registry(|| {
            set_mode(TelemetryMode::Off);
            bump(Counter::ProbeHits);
            flush_thread();
            observe(Hist::UpdateLatency, 123);
            gauge_set(Gauge::EpochLag, 7);
            set_mode(TelemetryMode::On);
            assert_eq!(counter(Counter::ProbeHits), 0);
            assert_eq!(hist_snapshot(Hist::UpdateLatency).count, 0);
            assert_eq!(gauge(Gauge::EpochLag), 0);
        });
    }

    #[test]
    fn span_records_its_phase_only_while_enabled() {
        with_registry(|| {
            drop(span(Phase::Fixpoint));
            set_mode(TelemetryMode::Off);
            drop(span(Phase::Rewrite));
            set_mode(TelemetryMode::On);
            assert_eq!(phase_totals(Phase::Fixpoint).0, 1);
            assert_eq!(phase_totals(Phase::Rewrite).0, 0);
        });
    }

    #[test]
    fn gauges_track_adds_and_sets() {
        with_registry(|| {
            gauge_add(Gauge::UpdateQueueDepth, 2);
            gauge_add(Gauge::UpdateQueueDepth, -1);
            assert_eq!(gauge(Gauge::UpdateQueueDepth), 1);
            gauge_set(Gauge::EpochLag, 3);
            assert_eq!(gauge(Gauge::EpochLag), 3);
        });
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let mut snap = HistSnapshot {
            buckets: [0; BUCKET_COUNT],
            sum_nanos: 0,
            count: 0,
        };
        assert_eq!(snap.percentile_nanos(0.5), None);
        assert_eq!(snap.percentiles(), None);

        // 100 observations spread evenly over the first bucket (0..=10µs):
        // the median interpolates to the bucket midpoint.
        snap.buckets[0] = 100;
        snap.count = 100;
        assert_eq!(snap.percentile_nanos(0.5), Some(5_000));
        assert_eq!(snap.percentile_nanos(0.0), Some(100));
        assert_eq!(snap.percentile_nanos(1.0), Some(10_000));

        // Add 100 observations in the 1ms..=2.5ms bucket: the p50 sits at
        // the first bucket's upper bound and p95 inside the slower bucket.
        let slow = bucket_index(2_000_000);
        snap.buckets[slow] = 100;
        snap.count = 200;
        assert_eq!(snap.percentile_nanos(0.5), Some(10_000));
        let p95 = snap.percentile_nanos(0.95).unwrap();
        assert!(
            p95 > BUCKET_BOUNDS_NANOS[slow - 1] && p95 <= BUCKET_BOUNDS_NANOS[slow],
            "{p95}"
        );
    }

    #[test]
    fn percentiles_saturate_at_the_overflow_bucket() {
        let mut snap = HistSnapshot {
            buckets: [0; BUCKET_COUNT],
            sum_nanos: 0,
            count: 2,
        };
        snap.buckets[0] = 1;
        snap.buckets[BUCKET_COUNT - 1] = 1;
        assert_eq!(
            snap.percentile_nanos(0.99),
            Some(BUCKET_BOUNDS_NANOS[BUCKET_BOUNDS_NANOS.len() - 1])
        );
    }

    #[test]
    fn slow_query_log_is_bounded_and_counted() {
        with_registry(|| {
            for index in 0..20 {
                slow_query(&format!("?- q{index}."), 1_000_000 * index);
            }
            let log = slow_queries();
            assert_eq!(log.len(), SLOW_LOG_CAPACITY);
            assert_eq!(log[0].0, "?- q4.");
            assert_eq!(counter(Counter::SlowQueries), 20);
        });
    }

    #[test]
    fn renders_mention_every_catalog_entry() {
        with_registry(|| {
            add(Counter::Queries, 2);
            observe(Hist::QueryLatency, 50_000);
            record_phase(Phase::Fixpoint, 1_000);
            let table = render_table();
            for (_, name) in COUNTERS {
                assert!(table.contains(name), "table missing counter {name}");
            }
            for (_, name) in PHASES {
                assert!(table.contains(name), "table missing phase {name}");
            }
            for (_, name) in GAUGES {
                assert!(table.contains(name), "table missing gauge {name}");
            }
            let prom = render_prometheus();
            assert!(prom.contains("pcs_queries_total 2"));
            assert!(prom.contains("pcs_query_latency_seconds_count 1"));
            assert!(prom.contains("le=\"+Inf\""));
            assert!(prom.contains("pcs_update_queue_depth"));
        });
    }
}
