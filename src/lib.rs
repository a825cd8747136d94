//! # hh-suite — the H-Houdini / VeloCT reproduction workspace
//!
//! A from-scratch Rust reproduction of *"H-Houdini: Scalable Invariant
//! Learning"* (ASPLOS 2025): the hierarchical invariant-learning algorithm,
//! the VeloCT safe-instruction-set-synthesis framework, and every substrate
//! they need — a CDCL SAT solver, a word-level netlist IR with btor2 I/O, a
//! bit-blasting SMT layer, an RV32 ISA subset, a cycle-accurate simulator,
//! and synthetic in-order (RocketLite) and out-of-order (BoomLite) cores.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names and hosts the repository-level examples and integration
//! tests. Use the individual crates directly for finer-grained dependencies.
//!
//! ## Map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sat`] | `hh-sat` | CDCL solver, assumption cores, core trimming |
//! | [`trace`] | `hh-trace` | run-level span/event/counter tracing |
//! | [`netlist`] | `hh-netlist` | circuit IR, evaluator, COI, miter, btor2 |
//! | [`smt`] | `hh-smt` | bit-blasting, predicates, abduction queries |
//! | [`isa`] | `hh-isa` | RV32 subset encodings + safe-set patterns |
//! | [`sim`] | `hh-sim` | trace simulation, paired product states |
//! | [`uarch`] | `hh-uarch` | RocketLite, BoomLite ×4, Appendix-C stage |
//! | [`hhoudini`] | `hhoudini` | the H-Houdini engines + baselines |
//! | [`veloct`] | `veloct` | safe-instruction-set synthesis |
//!
//! ## Quickstart
//!
//! ```no_run
//! use hh_suite::uarch::rocketlite::rocket_lite;
//! use hh_suite::veloct::{Veloct, default_candidates};
//!
//! let design = rocket_lite(16);
//! let report = Veloct::new(&design).classify(&default_candidates());
//! println!("verified safe set: {:?}", report.safe);
//! ```

#![warn(missing_docs)]

pub use hh_isa as isa;
pub use hh_netlist as netlist;
pub use hh_sat as sat;
pub use hh_sim as sim;
pub use hh_smt as smt;
pub use hh_trace as trace;
pub use hh_uarch as uarch;
pub use hhoudini;
pub use veloct;
