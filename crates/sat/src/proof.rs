//! DRAT proof logging interface.
//!
//! The solver can stream its clausal inferences to a [`ProofSink`]: every
//! learnt clause. Together with the original input formula this stream forms
//! a RUP proof that an independent checker (the `hh-proof` crate) can verify
//! without trusting any of the solver's reasoning.
//!
//! Assumption-based UNSAT answers are certified with the standard wrapper
//! trick: the final-core literals are appended as unit additions followed by
//! the empty clause ([`ProofSink::add_core`]). The resulting stream is a
//! valid refutation of `formula ∧ core`.
//!
//! Deletions are not logged. A clause the solver drops from its database
//! stays in the checker's, which only makes the checker's propagation
//! stronger; the proof stays sound because every clause in it is implied by
//! the formula. Clause storage details (lazy deletion marks, in-place
//! compaction) therefore never reach the stream.
//!
//! [`DratLog`] is the sink of a solver asked a sequence of assumption
//! queries whose last answer is the one to certify (an abduction query and
//! its trimming re-solves): it keeps every learnt clause in binary DRAT, and
//! of the wrappers only the latest.

use crate::lit::Lit;
use std::sync::{Arc, Mutex};

/// A consumer of DRAT proof events emitted by [`crate::Solver`].
///
/// Implementations must be [`Send`] so a solver carrying a sink can still be
/// moved across worker threads, and [`std::fmt::Debug`] because the solver
/// derives `Debug`.
pub trait ProofSink: std::fmt::Debug + Send {
    /// A clause was derived. The clause is redundant with respect to
    /// everything previously in the formula: it is RUP (reverse unit
    /// propagation) checkable. An empty slice is the empty clause, i.e. the
    /// refutation is complete.
    fn add_clause(&mut self, lits: &[Lit]);

    /// An UNSAT answer under assumptions whose formula is not refuted:
    /// `core` is the final core. The wrapper lines — each core literal as a
    /// unit, then the empty clause — are RUP only while the core is assumed,
    /// so a sink that outlives the answer may treat them apart from the
    /// learnt clauses. By default they are plain additions.
    fn add_core(&mut self, core: &[Lit]) {
        for &a in core {
            self.add_clause(&[a]);
        }
        self.add_clause(&[]);
    }
}

/// Appends one addition step in **binary DRAT**, the compact form of
/// `drat-trim`: the tag byte `a` (0x61), each literal as a 7-bit
/// continuation varint, and a 0x00 terminator. A literal of variable index
/// `v` (DIMACS variable `v + 1`) maps to `2(v + 1)` when positive and
/// `2(v + 1) + 1` when negative, so no literal byte sequence contains 0x00
/// and the terminators count the steps.
pub fn push_binary_step(out: &mut Vec<u8>, lits: &[Lit]) {
    out.push(b'a');
    for &l in lits {
        let mut u = 2 * (l.var().index() as u64 + 1) + u64::from(!l.is_positive());
        while u >= 0x80 {
            out.push((u & 0x7f) as u8 | 0x80);
            u >>= 7;
        }
        out.push(u as u8);
    }
    out.push(0);
}

/// Binary DRAT log of a sequence of assumption queries, certifying the last
/// one: every learnt clause of every solve, then the wrapper of the latest
/// UNSAT answer (its core units and the empty clause). An earlier answer's
/// wrapper is dropped when the next one arrives; it is RUP only under that
/// answer's assumptions. A permanent empty clause (the formula itself
/// refuted) ends the log without a wrapper.
///
/// The buffer lives behind an [`Arc`], so the caller keeps a
/// [`DratLog::handle`] while the sink is boxed into the solver and takes the
/// bytes back with [`DratLog::take`].
#[derive(Debug, Default, Clone)]
pub struct DratLog {
    buf: Arc<Mutex<LogBuf>>,
}

#[derive(Debug, Default)]
struct LogBuf {
    learnt: Vec<u8>,
    wrapper: Vec<u8>,
}

impl DratLog {
    /// An empty log.
    pub fn new() -> DratLog {
        DratLog::default()
    }

    /// A second handle onto the same log.
    pub fn handle(&self) -> DratLog {
        self.clone()
    }

    /// Takes the log out: the learnt clauses, then the latest wrapper.
    pub fn take(&self) -> Vec<u8> {
        let mut buf = self
            .buf
            .lock()
            .expect("no log method panics while holding the buffer");
        let LogBuf { learnt, wrapper } = std::mem::take(&mut *buf);
        let mut out = learnt;
        out.extend_from_slice(&wrapper);
        out
    }
}

impl ProofSink for DratLog {
    fn add_clause(&mut self, lits: &[Lit]) {
        let mut buf = self
            .buf
            .lock()
            .expect("no log method panics while holding the buffer");
        if lits.is_empty() {
            buf.wrapper.clear();
        }
        push_binary_step(&mut buf.learnt, lits);
    }

    fn add_core(&mut self, core: &[Lit]) {
        let mut buf = self
            .buf
            .lock()
            .expect("no log method panics while holding the buffer");
        buf.wrapper.clear();
        for &a in core {
            push_binary_step(&mut buf.wrapper, &[a]);
        }
        push_binary_step(&mut buf.wrapper, &[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    #[test]
    fn binary_steps_use_the_drat_literal_mapping() {
        let lit = |n: i64| Var::from_index(n.unsigned_abs() as usize - 1).lit(n > 0);
        let mut out = Vec::new();
        push_binary_step(&mut out, &[lit(1), lit(-2), lit(130)]);
        push_binary_step(&mut out, &[]);
        // 1 -> 2, -2 -> 5, 130 -> 260 = 0x84 0x02.
        assert_eq!(out, [b'a', 2, 5, 0x84, 0x02, 0, b'a', 0]);
    }

    #[test]
    fn a_log_keeps_the_learnt_clauses_and_the_latest_wrapper() {
        let [a, b, c] = [0, 1, 2].map(|i| Var::from_index(i).positive());
        let log = DratLog::new();
        let mut sink = log.handle();
        let step = |lits: &[Lit]| {
            let mut out = Vec::new();
            push_binary_step(&mut out, lits);
            out
        };
        sink.add_clause(&[!a, b]);
        sink.add_core(&[a, c]);
        sink.add_clause(&[!c, b]);
        sink.add_core(&[c]);
        let expected = [step(&[!a, b]), step(&[!c, b]), step(&[c]), step(&[])].concat();
        assert_eq!(log.take(), expected);
        // A refuted formula ends the log: no wrapper after the empty clause.
        sink.add_clause(&[b]);
        sink.add_core(&[a]);
        sink.add_clause(&[]);
        assert_eq!(log.take(), [step(&[b]), step(&[])].concat());
        assert!(log.take().is_empty());
    }
}
