//! # pcs-core
//!
//! High-level API for the *Pushing Constraint Selections* reproduction: the
//! [`Optimizer`] builder over the rewritings of `pcs-transform`, plus the
//! paper's worked example programs and deterministic workload generators
//! ([`programs`]).
//!
//! ## Quickstart
//!
//! ```
//! use pcs_core::{programs, Optimizer, Strategy};
//! use pcs_lang::Pred;
//!
//! // Example 1.1: the flights program, optimized with Constraint_rewrite.
//! let program = programs::flights();
//! let db = programs::flights_database(6, 30);
//!
//! let baseline = Optimizer::new(program.clone()).strategy(Strategy::None).optimize().unwrap();
//! let optimized = Optimizer::new(program).strategy(Strategy::ConstraintRewrite).optimize().unwrap();
//!
//! // Same answers, fewer flight facts computed.
//! assert_eq!(baseline.count_answers(&db), optimized.count_answers(&db));
//! let flight = Pred::new("flight");
//! assert!(optimized.evaluate(&db).count_for(&flight) <= baseline.evaluate(&db).count_for(&flight));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

pub mod optimizer;
pub mod programs;

pub use optimizer::{Optimized, Optimizer, Strategy};

pub use pcs_analysis as analysis;
pub use pcs_constraints as constraints;
pub use pcs_engine as engine;
pub use pcs_lang as lang;
pub use pcs_transform as transform;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::optimizer::{Optimized, Optimizer, Strategy};
    pub use crate::programs;
    pub use pcs_analysis::{
        analyze, analyze_with, AnalyzeOptions, Code, Diagnostic, ProgramAnalysis, Severity,
    };
    pub use pcs_constraints::{Atom, CmpOp, Conjunction, ConstraintSet, LinearExpr, Rational, Var};
    pub use pcs_engine::{
        parse_facts, Database, EvalLimits, EvalOptions, Evaluator, Fact, FactRef, FactsError,
        Relation, Termination, UpdateBatch, Value,
    };
    pub use pcs_lang::{
        parse_program, Literal, Pred, Program, Query, Rule, Symbol, SymbolTable, Term,
    };
    pub use pcs_transform::{
        apply_sequence, check_decidable_class, constraint_rewrite, gen_predicate_constraints,
        gen_prop_predicate_constraints, gen_prop_qrp_constraints, gen_qrp_constraints,
        magic_rewrite, GenOptions, MagicOptions, PropagateOptions, RewriteOptions, SequenceOptions,
        SipStrategy, Step, OPTIMAL_SEQUENCE,
    };
}
