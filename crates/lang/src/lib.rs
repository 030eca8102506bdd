//! # pcs-lang
//!
//! The constraint query language (CQL) front-end for the *Pushing Constraint
//! Selections* reproduction: terms, literals, rules, programs, queries, a
//! Prolog-like parser and pretty-printing.
//!
//! A program is a finite set of [`Rule`]s.  Each rule body contains ordinary
//! literals plus a [`pcs_constraints::Conjunction`] of linear arithmetic
//! constraints (Section 2 of the paper).  Programs may carry a [`Query`],
//! which [`Program::attach_query_rule`] converts into an ordinary rule
//! defining a fresh query predicate, exactly as the paper prescribes.
//!
//! ## Example
//!
//! ```
//! use pcs_lang::parse_program;
//!
//! let program = parse_program(
//!     "r1: q(X, Y) :- a(X, Y), X <= 4.\n\
//!      r2: a(X, Y) :- b1(X, Z), a2(Z, Y).\n\
//!      ?- q(U, V).",
//! )
//! .unwrap();
//! assert_eq!(program.rules().len(), 2);
//! assert!(program.query().is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

pub mod graph;
pub mod intern;
pub mod literal;
pub mod parser;
pub mod program;
pub mod rule;
pub mod term;

pub use graph::RuleGraph;
pub use intern::{SymId, SymbolTable};
pub use literal::{write_atom, Literal, Pred};
pub use parser::{
    fact_rules, parse_facts, parse_literal, parse_program, parse_query, parse_rule, FactRules,
    ParseError,
};
pub use program::{Program, Query};
pub use rule::{Rule, Span};
pub use term::{Symbol, Term};
