//! `hh-proof`: proof logging, checking, and invariant certificates.
//!
//! This crate closes the trust loop of the H-Houdini stack. The learner
//! (`hh-core` / `hh-veloct`) produces an inductive invariant by discharging
//! thousands of SAT queries through `hh-sat`; nothing in that pipeline is
//! independently auditable. With `hh-proof`:
//!
//! 1. `hh-sat` logs every learnt clause and deletion as a DRAT stream
//!    through its `ProofSink` trait ([`drat`] provides the in-memory sink
//!    and the binary wire format);
//! 2. [`check`] re-validates those streams with a forward RUP/RAT checker
//!    that shares no code with the solver's search;
//! 3. [`cert`] packages a learned invariant as a *certificate bundle* — the
//!    predicate set plus one relative-induction obligation (CNF + DRAT
//!    refutation) per predicate — and re-derives and re-checks every
//!    obligation from the netlist alone.
//!
//! The `certify` binary is the command-line face of step 3.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cert;
pub mod check;
pub mod drat;

pub use check::{check_proof, check_proof_with_assumptions, CheckError, CheckStats};
pub use drat::{MemoryProof, ProofLine};
