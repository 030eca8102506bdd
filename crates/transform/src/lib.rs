//! # pcs-transform
//!
//! Program transformations for constraint query languages, implementing the
//! contribution of *Pushing Constraint Selections* (Srivastava &
//! Ramakrishnan) and the related techniques it compares against:
//!
//! * adornments, sips and (constraint) Magic Templates rewriting
//!   ([`magic`], Appendix B / Section 7.2),
//! * generation and propagation of minimum predicate constraints
//!   ([`pred_constraints`], Section 4.4),
//! * generation and propagation of QRP constraints ([`qrp`], Sections 4.2-4.3),
//! * the one rewriting pipeline, a sequence of `pred` / `qrp` / `mg` steps:
//!   `Constraint_rewrite` is `pred, qrp` and Section 7 studies the orderings
//!   ([`rewrite`]),
//! * answering the query from the predicate its query predicate only copies
//!   ([`retarget`], Appendix A's unfold step on the query literal),
//! * the decidable class of Section 5 ([`decidable`]),
//! * the Balbin et al. C transformation as a baseline ([`balbin`], Section 6.1).
//!
//! ## Example
//!
//! ```
//! use pcs_lang::parse_program;
//! use pcs_transform::{apply_sequence, PropagateOptions, CONSTRAINT_REWRITE};
//!
//! let program = parse_program(
//!     "q(X) :- p1(X, Y), p2(Y), X + Y <= 6, X >= 2.\n\
//!      p1(X, Y) :- b1(X, Y).\n\
//!      p2(X) :- b2(X).\n\
//!      ?- q(Z).",
//! )
//! .unwrap();
//! let result =
//!     apply_sequence(&program, &CONSTRAINT_REWRITE, &PropagateOptions::default()).unwrap();
//! // The rewritten definition of p2 now checks X <= 4 before touching b2.
//! let p2_rules = result.program.rules_for(&pcs_lang::Pred::new("p2"));
//! assert!(!p2_rules[0].constraint.is_trivially_true());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

pub mod adorn;
pub mod balbin;
pub mod decidable;
pub mod error;
pub mod magic;
pub mod pred_constraints;
pub mod qrp;
pub mod retarget;
pub mod rewrite;

pub use adorn::{Adornment, SipStrategy};
pub use balbin::{balbin_c_transform, gen_syntactic_constraints};
pub use decidable::{check_decidable_class, DecidableClassReport};
pub use error::{Result, TransformError};
pub use magic::{magic_rewrite, MagicOptions, MagicResult};
pub use pred_constraints::{
    gen_predicate_constraints, gen_prop_predicate_constraints, ConstraintAnalysis, GenOptions,
};
pub use qrp::{gen_prop_qrp_constraints, gen_qrp_constraints, PropagateOptions};
pub use retarget::{retarget_query, Retarget};
pub use rewrite::{apply_sequence, SequenceResult, Step, CONSTRAINT_REWRITE, OPTIMAL_SEQUENCE};
