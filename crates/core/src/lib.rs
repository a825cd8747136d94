//! # hhoudini — scalable hierarchical invariant learning
//!
//! The paper's core contribution: an invariant-learning algorithm that
//! replaces the monolithic SMT checks of MLIS learners (HOUDINI, SORCAR)
//! with a hierarchy of small, incremental, memoisable and parallelisable
//! relative-induction checks that compose into a full inductive invariant
//! correct-by-construction (paper §3).
//!
//! * [`ParallelEngine`] — the one engine: Algorithm 1 (memoisation,
//!   `P_fail`, partial backtracking, cycle handling) run as the task DAG
//!   its recursion is (§3.2.4), on a worker pool of any size — one worker
//!   is the serial run — or, through [`ParallelEngine::learn_sim`], on no
//!   threads at all with a [`SimDriver`] choosing the completion order.
//! * [`mine::CoiMiner`] — `O_slice` + `O_mine` (Algorithm 2): 1-step
//!   cone-of-influence slicing and positive-example-filtered predicate
//!   mining (`Eq` / `EqConst` / `InSafeSet` / validated expert annotations).
//! * [`baselines`] — HOUDINI and SORCAR-style learners over the same
//!   predicate pool, using monolithic queries (the paper's comparison).
//! * [`Stats`] — the task DAG with per-task timing, plus the virtual-core
//!   scheduler that regenerates the paper's core-count sweeps and ∞-core
//!   span.
//!
//! ## Example: the paper's AND-gate
//!
//! ```
//! use hh_netlist::{Netlist, Bv, miter::Miter};
//! use hh_netlist::eval::StateValues;
//! use hh_smt::Predicate;
//! use hhoudini::{ParallelEngine, EngineConfig, mine::CoiMiner};
//!
//! // A <= B & C; B and C hold their values.
//! let mut n = Netlist::new("and_gate");
//! let b = n.state("B", 1, Bv::bit(true));
//! let c = n.state("C", 1, Bv::bit(true));
//! let a = n.state("A", 1, Bv::bit(true));
//! let band = n.and(n.state_node(b), n.state_node(c));
//! n.set_next(a, band);
//! n.keep_state(b);
//! n.keep_state(c);
//! let m = Miter::build(&n);
//!
//! // One positive example: everything 1 on both sides.
//! let mut e = StateValues::initial(m.netlist());
//! let examples = vec![e];
//!
//! let miner = CoiMiner::new(&m, &examples, None, vec![]);
//! let mut engine = ParallelEngine::new(m.netlist(), miner, EngineConfig::default(), 1);
//! let property = Predicate::eq(m.left(a), m.right(a));
//! let inv = engine.learn(&[property]).expect("invariant exists");
//! assert!(inv.verify_monolithic(m.netlist()));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baselines;
mod invariant;
pub mod mine;
mod parallel;
pub mod reorder;
pub mod sim;
mod stats;
mod store;

pub use invariant::Invariant;
pub use parallel::{EngineConfig, ParallelEngine, ISSUE_WINDOW};
pub use reorder::ReorderBuffer;
pub use sim::{FifoDriver, SchedEvent, SimDriver};
pub use stats::{Stats, TaskRecord};
pub use store::{PredId, PredicateStore};
