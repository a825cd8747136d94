//! # hh-netlist — word-level sequential-circuit IR
//!
//! The transition-system substrate of the H-Houdini reproduction. A
//! [`Netlist`] is a btor2-like word-level circuit: registers ([`StateId`])
//! with initial values and next-state functions, free inputs, and a
//! hash-consed DAG of combinational operators.
//!
//! The crate provides everything the invariant learner needs from "the RTL":
//!
//! * a builder API used by `hh-uarch` to construct processor models,
//! * a concrete evaluator ([`eval`]) giving the reference semantics, and its
//!   compiled multi-cycle form ([`tape`]) used for positive-example
//!   generation,
//! * cone-of-influence slicing ([`coi::Coi`]) — the paper's `O_slice` oracle,
//! * miter (product-circuit) construction ([`miter::Miter`]) for relational
//!   2-safety properties,
//! * a btor2 subset reader/writer ([`btor2`]) matching the paper's input
//!   format.
//!
//! ## Example
//!
//! ```
//! use hh_netlist::{Netlist, Bv, eval};
//!
//! // A 4-bit accumulator.
//! let mut n = Netlist::new("acc");
//! let acc = n.state("acc", 4, Bv::zero(4));
//! let inp = n.input("in", 4);
//! let cur = n.state_node(acc);
//! let sum = n.add(cur, inp);
//! n.set_next(acc, sum);
//!
//! let mut state = eval::StateValues::initial(&n);
//! let mut inputs = eval::InputValues::zeros(&n);
//! inputs.set_by_name(&n, "in", Bv::new(4, 3));
//! state = eval::step(&n, &state, &inputs);
//! assert_eq!(state.get(acc), Bv::new(4, 3));
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod bv;
mod netlist;

pub mod btor2;
pub mod coi;
pub mod eval;
pub mod miter;
pub mod simp;
pub mod tape;

pub use bv::{Bv, MAX_WIDTH};
pub use netlist::{InputId, Netlist, Node, NodeId, NodeOp, StateId};
