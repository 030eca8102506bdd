//! Evaluation options.

use crate::limits::EvalLimits;
use crate::plan::SelectivityHints;

/// Options controlling an evaluation.
#[derive(Debug, Clone, Default)]
pub struct EvalOptions {
    /// Resource limits.
    pub limits: EvalLimits,
    /// When `true`, every derivation is recorded in the statistics
    /// (needed to regenerate Tables 1 and 2; expensive for large workloads).
    pub trace: bool,
    /// Analyzer-derived per-position selectivity classes consumed by the
    /// plan compiler (see [`SelectivityHints`]).  Empty by default — the
    /// planner then falls back to the purely structural most-bound-first
    /// order; `Optimizer::optimize()` fills the hints from the converged
    /// constraint analysis.
    pub hints: SelectivityHints,
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

    /// Ignored: returns these options unchanged.  Every evaluation runs on
    /// the calling thread; this method exists only so that `perfbench/`,
    /// which still passes a thread count, keeps compiling.
    #[doc(hidden)]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }
}
