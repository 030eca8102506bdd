//! # pcs-engine
//!
//! Bottom-up semi-naive fixpoint evaluation of constraint query language
//! programs with constraint facts, subsumption, per-iteration statistics and
//! resource limits — the evaluation substrate of the *Pushing Constraint
//! Selections* reproduction (Section 2 of the paper).
//!
//! ## Example
//!
//! ```
//! use pcs_engine::{Database, EvalOptions, Evaluator, Value};
//! use pcs_lang::{parse_program, Pred};
//!
//! let program = parse_program(
//!     "path(X, Y) :- edge(X, Y).\n\
//!      path(X, Y) :- edge(X, Z), path(Z, Y), Y <= 10.",
//! )
//! .unwrap();
//! let mut db = Database::new();
//! db.add_ground("edge", vec![Value::num(1), Value::num(2)]);
//! db.add_ground("edge", vec![Value::num(2), Value::num(3)]);
//! let result = Evaluator::new(&program, EvalOptions::default()).evaluate(&db);
//! assert_eq!(result.count_for(&Pred::new("path")), 3);
//! assert!(result.termination.is_fixpoint());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

pub mod database;
pub mod eval;
pub mod fact;
pub mod limits;
pub mod naive;
pub mod plan;
pub mod relation;
pub mod stats;
pub mod value;

pub use database::{parse_facts, Database, FactsError, UpdateBatch};
pub use eval::{EvalOptions, EvalResult, Evaluator};
pub use fact::{Binding, Fact};
pub use limits::{EvalLimits, Termination};
#[doc(hidden)]
pub use plan::{compile_plans, RetiredHints};
pub use plan::{
    render_plans, Admission, ArgOp, AtomOp, HeadOp, JoinPlan, PlanAtom, PlanFinding,
    PlanFindingKind, PlanStep, ProgramPlans, Slot, SlotExpr, Stage,
};
pub use relation::{FactRef, InsertOutcome, Relation, Window};
pub use stats::{DerivationRecord, EvalStats, IterationStats};
pub use value::Value;
