//! `hh-proof`: proof logging, checking, and invariant certificates.
//!
//! This crate closes the trust loop of the H-Houdini stack. The learner
//! (`hh-core` / `hh-veloct`) produces an inductive invariant by discharging
//! thousands of SAT queries through `hh-sat`; nothing in that pipeline is
//! independently auditable. With `hh-proof`:
//!
//! 1. `hh-sat` logs every learnt clause as a DRAT stream through its
//!    `ProofSink` trait, in binary form into a `DratLog` ([`drat`] reads
//!    that wire format);
//! 2. [`check`] re-validates those streams with a forward RUP checker — a
//!    watched-literal unit propagator that shares no code with the
//!    solver's search;
//! 3. [`cert`] packages a learned invariant as a *certificate bundle* — the
//!    predicate set plus one relative-induction obligation per predicate:
//!    the abduction query that proved it and that query's own DRAT
//!    refutation — and re-derives and re-checks every obligation from the
//!    netlist alone.
//!
//! The `certify` binary is the command-line face of step 3.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cert;
pub mod check;
pub mod drat;

pub use check::{check_proof, check_proof_with_assumptions, CheckError, CheckStats};
