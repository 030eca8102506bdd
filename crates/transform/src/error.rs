//! Errors produced by program transformations.

use std::fmt;

use pcs_lang::Pred;

/// Errors produced by the rewriting procedures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The transformation needs a query but the program has none.
    MissingQuery,
    /// A predicate was used with inconsistent arities.
    ArityMismatch {
        /// The offending predicate.
        predicate: Pred,
    },
    /// A constraint-generation procedure did not stabilize within its
    /// iteration budget.
    DidNotConverge {
        /// The procedure that failed to converge.
        procedure: &'static str,
        /// The number of iterations performed.
        iterations: usize,
    },
    /// The program is outside the class the transformation supports
    /// (e.g. GMT grounding on a non-groundable program).
    UnsupportedProgram {
        /// Explanation of the restriction that was violated.
        reason: String,
    },
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::MissingQuery => write!(f, "the program has no query"),
            TransformError::ArityMismatch { predicate } => {
                write!(
                    f,
                    "predicate `{predicate}` is used with inconsistent arities"
                )
            }
            TransformError::DidNotConverge {
                procedure,
                iterations,
            } => write!(
                f,
                "procedure {procedure} did not reach a fixpoint within {iterations} iterations"
            ),
            TransformError::UnsupportedProgram { reason } => {
                write!(f, "unsupported program: {reason}")
            }
        }
    }
}

impl std::error::Error for TransformError {}

/// Result alias for transformations.
pub type Result<T> = std::result::Result<T, TransformError>;
