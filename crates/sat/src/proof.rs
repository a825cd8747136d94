//! DRAT proof logging interface.
//!
//! The solver can stream its clausal inferences to a [`ProofSink`]: every
//! learnt clause. Together with the original input formula this stream forms
//! a RUP proof that an independent checker (the `hh-proof` crate) can verify
//! without trusting any of the solver's reasoning.
//!
//! Assumption-based UNSAT answers are certified with the standard wrapper
//! trick: the final-core literals are appended as unit additions followed by
//! the empty clause. The resulting stream is a valid refutation of
//! `formula ∧ core`.
//!
//! Deletions are not logged. A clause the solver drops from its database
//! stays in the checker's, which only makes the checker's propagation
//! stronger; the proof stays sound because every clause in it is implied by
//! the formula. Clause storage details (lazy deletion marks, in-place
//! compaction) therefore never reach the stream.

use crate::lit::Lit;

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
}

/// A sink that counts events and bytes but stores nothing. Useful for
/// measuring proof-logging overhead without I/O.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingSink {
    /// Number of `add_clause` events seen.
    pub adds: u64,
    /// Total literal count across all events.
    pub lits: u64,
}

impl ProofSink for CountingSink {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.adds += 1;
        self.lits += lits.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::default();
        let a = crate::lit::Var::from_index(0).positive();
        s.add_clause(&[a, !a]);
        s.add_clause(&[a]);
        s.add_clause(&[]);
        assert_eq!(s.adds, 3);
        assert_eq!(s.lits, 3);
    }
}
