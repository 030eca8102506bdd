//! # pushing-constraint-selections
//!
//! A from-scratch Rust reproduction of *Pushing Constraint Selections*
//! (Divesh Srivastava and Raghu Ramakrishnan, PODS 1992 / Journal of Logic
//! Programming 1993): optimization of constraint query language programs by
//! generating and propagating minimum predicate constraints and
//! query-relevant predicate (QRP) constraints, combined with the Magic
//! Templates rewriting.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`constraints`] — linear arithmetic constraint algebra
//!   (Fourier–Motzkin, DNF constraint sets, PTOL/LTOP),
//! * [`lang`] — the CQL front-end (terms, rules, programs, parser),
//! * [`engine`] — bottom-up semi-naive evaluation with constraint facts,
//!   incremental insertion and DRed-style retraction of update batches
//!   (`Evaluator::apply`), plus a naive reference interpreter used as a
//!   conformance oracle,
//! * [`transform`] — the rewritings (predicate/QRP constraints, fold/unfold,
//!   Magic Templates, Balbin's C transformation, the decidable class),
//! * [`core`] — the high-level [`Optimizer`] API and the paper's example
//!   programs,
//! * [`service`] — long-lived incremental materialized query sessions
//!   ([`Session`]), the interactive shell, and the REPL/TCP front-ends
//!   (`pcs-repl`, `pcs-serve`),
//! * [`telemetry`] — the process-wide metrics registry (engine counters,
//!   phase timers, latency histograms) behind the shell's `.metrics`
//!   command and the `PCS_TELEMETRY`/`PCS_TRACE_JSON` environment knobs.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the reproduction of every table and figure.
//!
//! ```
//! use pushing_constraint_selections::prelude::*;
//!
//! let program = programs::example_41();
//! let optimized = Optimizer::new(program).strategy(Strategy::ConstraintRewrite).optimize().unwrap();
//! // The rewritten definition of p2 checks X <= 4 before scanning b2.
//! assert!(!optimized.program.rules_for(&Pred::new("p2"))[0].constraint.is_trivially_true());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

pub use pcs_constraints as constraints;
pub use pcs_core as core;
pub use pcs_engine as engine;
pub use pcs_lang as lang;
pub use pcs_service as service;
pub use pcs_telemetry as telemetry;
pub use pcs_transform as transform;

pub use pcs_core::{Optimized, Optimizer, Strategy};
pub use pcs_service::{Session, SessionHub, Shell, Snapshot};

/// Commonly used items from every layer.
pub mod prelude {
    pub use pcs_core::prelude::*;
    pub use pcs_lang::{parse_facts as parse_fact_rules, parse_query};
    pub use pcs_service::{
        Server, Session, SessionError, SessionHub, SessionStats, Shell, Snapshot, UpdateOutcome,
    };
}
