//! # hh-vopr — deterministic whole-engine simulation
//!
//! A VOPR-style simulator (Viewstamped Operation Replicator, after the
//! TigerBeetle/Kimberlite lineage) for the H-Houdini engine: one seeded
//! PRNG owns *every* source of nondeterminism — worker interleaving,
//! commit reordering, SAT budget slicing, fault injection — so
//! `vopr --seed N` reproduces an entire engine run bit-for-bit, and a
//! failing seed is a complete bug report.
//!
//! The crate splits into:
//!
//! * [`rng`] — the splitmix64 PRNG and its fork discipline;
//! * [`fault`] — the fault vocabulary and per-seed [`fault::FaultPlan`];
//! * [`designs`] — self-contained engine scenarios (wide / backtrack / leak);
//! * [`invariants`] — the always-on engine-invariant registry;
//! * [`harness`] — the per-seed driver gluing it together, plus
//!   [`harness::minimize`] for shrinking a failing fault schedule.
//!
//! See `docs/VOPR.md` for the operator's guide and the checker-writing
//! walkthrough.

pub mod designs;
pub mod fault;
pub mod harness;
pub mod invariants;
pub mod rng;

pub use fault::{Fault, FaultPlan};
pub use harness::{minimize, run_seed, SeedReport, VoprOptions};
pub use invariants::{InvariantResult, Registry};
pub use rng::SplitMix64;
