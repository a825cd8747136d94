//! # hh-sat — a CDCL SAT solver with assumption cores
//!
//! A from-scratch conflict-driven clause-learning SAT solver built as the
//! decision-procedure substrate for the H-Houdini invariant learner. The
//! paper uses cvc5 with `minimal-unsat-cores`; the abduction oracle only
//! requires (i) incremental solving under assumptions and (ii) small UNSAT
//! cores over those assumptions — both provided here.
//!
//! ## Quick start
//!
//! ```
//! use hh_sat::{Solver, SolveResult, trim_core};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var().positive();
//! let b = solver.new_var().positive();
//! let c = solver.new_var().positive();
//! solver.add_clause(&[!a, !b]); // a and b cannot both hold
//!
//! assert_eq!(solver.solve_with_assumptions(&[a, b, c]), SolveResult::Unsat);
//! let core = solver.unsat_core().to_vec();
//! let trimmed = trim_core(&mut solver, &core);
//! assert_eq!(trimmed, [a, b]); // c is not part of the contradiction
//! ```
//!
//! ## Features
//!
//! * Two-literal watching, first-UIP learning with clause minimisation,
//!   VMTF decision queue + phase saving, adaptive restarts,
//!   LBD-aware database reduction.
//! * Incremental interface: interleave [`Solver::new_var`],
//!   [`Solver::add_clause`] and [`Solver::solve_with_assumptions`] freely.
//! * [`trim_core`] shrinks assumption cores by re-solving under them to a
//!   fixpoint: UNSAT solves only, where cvc5's `minimal-unsat-cores` also
//!   proves each member critical with a SAT probe.
//! * DRAT proof logging: attach a [`proof::ProofSink`] with
//!   [`Solver::set_proof_sink`] and every learnt clause is streamed out for
//!   independent checking; [`proof::DratLog`] keeps it in binary DRAT (the
//!   `hh-proof` crate provides the reader and a RUP checker).
//! * Budgeted solving: [`Solver::solve_limited`] stops after a conflict
//!   budget with [`LimitedResult::Unknown`] and resumes losslessly.
//! * [`Solver::formula_clauses`] captures the formula a proof refutes, and
//!   [`dimacs::fingerprint`] hashes it in place for certificates.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod clause;
mod lit;
mod solver;
mod trim;
mod vmtf;
mod watch;

pub mod dimacs;
pub mod proof;

pub use lit::{Lit, Var};
pub use proof::{DratLog, ProofSink};
pub use solver::{Config, LimitedResult, SolveResult, Solver, SolverStats};
pub use trim::trim_core;
