//! `hh-serve` — a warm, long-running verification daemon for the VeloCT
//! pipeline.
//!
//! Batch `veloct` pays the full cost of every run: netlist build, CNF
//! blasting, invariant learning from nothing. In an interactive hardware
//! flow the same design is verified over and over with small or no changes,
//! so almost all of that work is re-derivable from the previous run. This
//! crate keeps it resident:
//!
//! * **[`server`]** — the daemon. Accepts length-prefixed JSON frames over
//!   TCP or a Unix socket ([`proto`]), keeps per-job [`state`] warm across
//!   requests (encode caches, memoised solutions, certificates), checkpoints to a state directory and restores on boot.
//! * **[`request`]** — what counts as a valid request: every design, job
//!   and run field parsed, bounded and defaulted once, for frames, the
//!   state directory, `veloct connect` and batch flags alike.
//! * **[`client`]** — a thin synchronous client used by `veloct connect`
//!   and the integration tests.
//! * **[`cli`]** — the `veloct` binary: `serve`, `connect`, and the
//!   original batch mode.
//! * **[`json`]** — a minimal self-contained JSON value/parser (the wire
//!   format and the persistence format; no external dependencies).
//!
//! Two properties are load-bearing and tested end to end:
//!
//! 1. **Warm answers are bit-identical to cold ones.** A repeat request is
//!    answered from the memo with zero SMT queries, and the invariant
//!    equals what a cold batch run at any thread count produces.
//! 2. **Warmth survives restart and design deltas.** A daemon restarted
//!    from its checkpoint reproduces its answers without re-solving, and a
//!    changed design re-learns only the memo entries that fail a re-check
//!    on it: premises among the candidates its examples give, obligation
//!    UNSAT on its netlist.
//!
//! The protocol and operational story are documented in `docs/SERVE.md`,
//! `docs/PRODUCTION.md` and `docs/MONITORING.md`.

#![deny(missing_docs)]

pub mod cli;
pub mod client;
pub mod proto;
pub mod request;
pub mod server;
pub mod state;

/// The JSON value, parser and writer of the serve protocol: the
/// repository's one JSON grammar, [`hh_trace::json`].
pub use hh_trace::json;
