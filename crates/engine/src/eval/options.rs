//! Evaluation options, and the one environment variable the evaluator
//! reads (`PCS_EVAL_THREADS`).

use crate::limits::EvalLimits;
use crate::plan::SelectivityHints;

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
    /// (rule × delta-position × delta-fact) work of every iteration at
    /// least [`min_parallel_work`](Self::min_parallel_work) wide across a
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
    /// run on the calling thread, since spawning workers and waiting for the
    /// kernel to place them would cost more than the round gains.  Purely a
    /// scheduling knob — the results are
    /// identical either way.  Defaults to [`MIN_PARALLEL_ROUND_WORK`]; set
    /// to `0` to shard every round.
    pub min_parallel_work: usize,
    /// Analyzer-derived per-position selectivity classes consumed by the
    /// plan compiler (see [`SelectivityHints`]).  Empty by default — the
    /// planner then falls back to the purely structural most-bound-first
    /// order; `Optimizer::optimize()` fills the hints from the converged
    /// constraint analysis.
    pub hints: SelectivityHints,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            limits: EvalLimits::default(),
            trace: false,
            threads: threads_from_env(),
            min_parallel_work: MIN_PARALLEL_ROUND_WORK,
            hints: SelectivityHints::default(),
        }
    }
}

/// Default for [`EvalOptions::min_parallel_work`]: rounds with fewer total
/// delta candidates than this evaluate on the calling thread even when a
/// worker pool is configured.
///
/// Two costs set it (DESIGN.md, "Slot-compiled frames").  The spawn itself
/// — about 0.1 ms per round on two threads — is amortized past roughly a
/// thousand candidates of the slot-compiled matcher.  The larger one is
/// *placement*: a scoped worker starts on its parent's CPU and gains
/// nothing until the kernel moves it to an idle one.  Where that is not
/// immediate (a cpuset with load balancing relaxed, as in the container this
/// was measured in: 1–4 ms when the other CPU was busy a moment ago, up to
/// a second when it was not), a sharded round of tens of milliseconds is
/// either 30 % faster or no faster than the calling thread alone, depending
/// on what the machine did before — the same evaluation timed 122 ms or
/// 171 ms.  The default therefore shards only rounds that are long on that
/// scale (2¹⁸ candidates, upwards of 50 ms of matching); below it the
/// evaluation is single-threaded and its timing does not depend on the
/// scheduler.  Lower it with [`EvalOptions::with_min_parallel_work`] on a
/// host that places new threads at once.
pub const MIN_PARALLEL_ROUND_WORK: usize = 1 << 18;

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_setting_recognizes_positive_counts_only() {
        assert_eq!(parse_threads_setting("4"), Some(4));
        assert_eq!(parse_threads_setting("0"), None);
        assert_eq!(parse_threads_setting("two"), None);
        assert_eq!(parse_threads_setting(""), None);
    }
}
