//! Evaluation options.

use crate::limits::EvalLimits;
use crate::plan::RetiredHints;

/// Options controlling an evaluation.
#[derive(Debug, Clone, Default)]
pub struct EvalOptions {
    /// Resource limits.
    pub limits: EvalLimits,
    /// When `true`, every derivation is recorded in the statistics
    /// (needed to regenerate Tables 1 and 2; expensive for large workloads).
    pub trace: bool,
    /// perfbench pin, deleted in ROADMAP item 1(b).
    #[doc(hidden)]
    pub hints: RetiredHints,
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
