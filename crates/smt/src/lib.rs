//! # hh-smt — bit-blasting and the H-Houdini SMT queries
//!
//! Bridges the word-level netlist IR (`hh-netlist`) and the CDCL SAT solver
//! (`hh-sat`), playing the role cvc5 plays in the paper:
//!
//! * [`cnf::Cnf`] — Tseitin gates and word-level primitives with structural
//!   caching.
//! * [`blast::TransitionEncoding`] — lazy, cone-scoped unrolling of one
//!   transition step. Only the 1-step cone a query touches is ever encoded;
//!   this is the mechanism behind H-Houdini's cheap incremental checks.
//! * [`pred::Predicate`] — VeloCT's relational predicate language (`Eq`,
//!   `EqConst`, `InSafeSet`/`InSafeUop` as mask/match sets).
//! * [`query`] — the abduction query (`⋀P_V ∧ p ∧ ¬p'` with UNSAT-core
//!   extraction, §3.2.3), relative-induction checks, and the monolithic
//!   HOUDINI query used by baselines.
//!
//! ## Example: abduction on the paper's AND-gate
//!
//! ```
//! use hh_netlist::{Netlist, Bv, miter::Miter};
//! use hh_smt::pred::Predicate;
//! use hh_smt::query::{abduct, AbductionConfig};
//!
//! // A <= B & C; B, C hold their values.
//! let mut n = Netlist::new("and_gate");
//! let b = n.state("B", 1, Bv::bit(true));
//! let c = n.state("C", 1, Bv::bit(true));
//! let a = n.state("A", 1, Bv::bit(true));
//! let band = n.and(n.state_node(b), n.state_node(c));
//! n.set_next(a, band);
//! n.keep_state(b);
//! n.keep_state(c);
//!
//! let m = Miter::build(&n);
//! let target = Predicate::eq(m.left(a), m.right(a));
//! let cands = vec![
//!     Predicate::eq(m.left(b), m.right(b)),
//!     Predicate::eq(m.left(c), m.right(c)),
//! ];
//! let res = abduct(m.netlist(), &target, &cands, &AbductionConfig::paper_default());
//! assert_eq!(res.abduct, Some(vec![0, 1])); // needs Eq(B) and Eq(C)
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod blast;
pub mod cache;
pub mod cnf;
pub mod pred;
pub mod query;
pub mod session;

pub use blast::TransitionEncoding;
pub use cache::{CacheStats, EncodeCache};
pub use pred::{Pattern, Predicate, SetLabel};
pub use query::{
    abduct, monolithic_induction_check, AbductionConfig, AbductionResult, InductionCex,
    MonolithicOutcome, MonolithicSession, QueryTelemetry,
};
pub use session::{AbductionSession, LoggedSolution, SessionCnf, SessionLog};
