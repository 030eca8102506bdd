//! # pcs-service
//!
//! The long-lived serving layer of the *Pushing Constraint Selections*
//! reproduction.  Everything below `pcs-core` is batch-shaped — build a
//! database, run one fixpoint, read the result; this crate keeps the
//! materialization alive instead:
//!
//! * [`Session`] — optimizes a program once (any [`pcs_core::Strategy`]),
//!   materializes its fixpoint, answers `?- q(...)` queries from immutable
//!   [`Snapshot`]s without re-evaluating, and applies EDB updates through
//!   [`pcs_engine::Evaluator::apply`]: `+fact.` insertions *resume* the
//!   semi-naive fixpoint from the inserted facts and `-fact.` retractions
//!   run DRed-style incremental deletion — neither recomputes from scratch.
//! * [`Shell`] — the line-oriented command language (load / query / insert /
//!   stats) shared by the front-ends, with [`SessionHub`] as the slot that
//!   lets many shells serve one session.
//! * [`Server`] — a std-only TCP server speaking the shell language framed
//!   with `.` terminator lines; one session shared across client threads.
//!
//! Two binaries ship with the crate: `pcs-repl` (stdin/stdout, scriptable
//! via heredoc) and `pcs-serve` (the TCP server).
//!
//! ## Example
//!
//! ```
//! use pcs_core::{programs, Optimizer, Strategy};
//! use pcs_lang::parse_query;
//! use pcs_service::Session;
//!
//! let optimizer = Optimizer::new(programs::flights()).strategy(Strategy::ConstraintRewrite);
//! let session = Session::materialize(&optimizer, &programs::flights_database(6, 10)).unwrap();
//!
//! let query = parse_query("?- cheaporshort(madison, seattle, T, C).").unwrap();
//! let (_, _, before) = session.query(&query).unwrap();
//!
//! // A new direct leg arrives; only the affected part of the fixpoint reruns.
//! session.insert_str("singleleg(madison, seattle, 45, 30).").unwrap();
//! let (_, _, after) = session.query(&query).unwrap();
//! assert_eq!(after.len(), before.len() + 1);
//!
//! // Retracting it deletes the leg and everything only it supported.
//! session.remove_str("singleleg(madison, seattle, 45, 30).").unwrap();
//! let (_, _, reverted) = session.query(&query).unwrap();
//! assert_eq!(reverted.len(), before.len());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

pub mod hub;
pub mod server;
pub mod session;
pub mod shell;
pub mod wal;

pub use hub::{HubError, SessionHub, SessionLimits};
pub use server::{Server, ServerHandle, ServerOptions};
pub use session::{Session, SessionError, SessionStats, Snapshot, UpdateOutcome};
pub use shell::{parse_strategy, strategy_label, strategy_token, Response, Shell};
pub use wal::Persistence;
