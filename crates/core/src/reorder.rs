//! The single-commit reorder buffer used by [`ParallelEngine`]'s scheduler
//! (see the determinism argument in that type's documentation).
//!
//! Workers complete jobs in arbitrary order; the scheduler inserts each
//! completion under its issue sequence number and pops them back strictly
//! in issue order, exactly one per scheduler iteration. The buffer is the
//! pivot of the engine's determinism story, so it is extracted here as a
//! standalone type with its own bounded [Kani](https://model-checking.github.io/kani/)
//! harness (see `verification` below): for *every* arrival permutation the
//! pop sequence is `0, 1, 2, …` — scheduler state never observes worker
//! timing.
//!
//! [`ParallelEngine`]: crate::ParallelEngine

use std::collections::BTreeMap;

/// An issue-order reorder buffer: out-of-order completions go in, in-order
/// commits come out.
///
/// `next` counts commits; [`ReorderBuffer::pop_in_order`] only yields when
/// the completion with sequence number `next` has arrived.
#[derive(Debug)]
pub struct ReorderBuffer<T> {
    buf: BTreeMap<usize, T>,
    next: usize,
    /// Total pops. Equal to `next` on the production (in-order) path; kept
    /// separate so the canary pop below can count commits without moving
    /// the in-order cursor (which would turn later legitimate arrivals
    /// into false "already committed" panics).
    committed: usize,
}

impl<T> Default for ReorderBuffer<T> {
    fn default() -> Self {
        ReorderBuffer::new()
    }
}

impl<T> ReorderBuffer<T> {
    /// Creates an empty buffer expecting sequence numbers from 0.
    pub fn new() -> ReorderBuffer<T> {
        ReorderBuffer {
            buf: BTreeMap::new(),
            next: 0,
            committed: 0,
        }
    }

    /// Buffers the completion with issue sequence number `seq`.
    ///
    /// Panics if `seq` was already committed or is already buffered —
    /// either means a job completed twice, which the engine must never
    /// allow.
    pub fn insert(&mut self, seq: usize, item: T) {
        assert!(seq >= self.next, "sequence {seq} already committed");
        let prev = self.buf.insert(seq, item);
        assert!(prev.is_none(), "sequence {seq} completed twice");
    }

    /// Whether the next in-order completion is buffered and ready to pop.
    pub fn ready(&self) -> bool {
        self.buf.contains_key(&self.next)
    }

    /// Pops the next completion in issue order, or `None` if it has not
    /// arrived yet (even when later completions are buffered).
    pub fn pop_in_order(&mut self) -> Option<(usize, T)> {
        let item = self.buf.remove(&self.next)?;
        let seq = self.next;
        self.next += 1;
        self.committed += 1;
        Some((seq, item))
    }

    /// Pops the *newest* buffered completion regardless of issue order.
    ///
    /// This deliberately violates the engine's commit-order contract: it
    /// exists only as the reintroduced bug behind the hh-vopr regression
    /// canary (a commit-order shuffle the simulator must detect). Never
    /// call it from production paths.
    #[doc(hidden)]
    pub fn pop_any_latest(&mut self) -> Option<(usize, T)> {
        let (&seq, _) = self.buf.iter().next_back()?;
        let item = self.buf.remove(&seq).expect("key just observed");
        // Counts the commit but leaves the in-order cursor alone, so
        // arrivals older than the popped key still insert cleanly — the
        // bug must surface through the vopr commit-order checker, not as
        // a panic here.
        self.committed += 1;
        Some((seq, item))
    }

    /// Number of completions popped (committed) so far.
    pub fn committed(&self) -> usize {
        self.committed
    }

    /// Number of completions currently buffered out of order.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

/// Bounded verification harness (chutoro-style ADR): a `#[cfg(kani)]`
/// proof under `cargo kani`, and under `cargo test` the same body run on
/// every choice within the same bound.
#[cfg(any(test, kani))]
mod verification {
    use super::ReorderBuffer;

    const N: usize = 4;

    /// For every arrival permutation of `N` completions, the pop sequence
    /// is exactly `0, 1, …, N-1` and nothing pops before its turn.
    /// `choose(n)` picks a value below `n`.
    fn reorder_pops_in_issue_order(choose: &mut dyn FnMut(usize) -> usize) {
        // Build an arrival permutation of 0..N from bounded choices.
        let mut remaining: Vec<usize> = (0..N).collect();
        let mut buf: ReorderBuffer<usize> = ReorderBuffer::new();
        let mut popped: Vec<usize> = Vec::new();
        for _ in 0..N {
            let pick = choose(remaining.len());
            let seq = remaining.swap_remove(pick);
            buf.insert(seq, seq * 10);
            // Drain everything that is in order so far.
            while let Some((s, item)) = buf.pop_in_order() {
                assert_eq!(item, s * 10);
                popped.push(s);
            }
        }
        assert_eq!(popped, (0..N).collect::<Vec<_>>());
        assert_eq!(buf.committed(), N);
        assert_eq!(buf.buffered(), 0);
    }

    #[cfg(kani)]
    #[kani::proof]
    #[kani::unwind(6)]
    fn reorder_proof() {
        reorder_pops_in_issue_order(&mut |bound| {
            let x: usize = kani::any();
            kani::assume(x < bound);
            x
        });
    }

    #[test]
    fn reorder_pops_in_issue_order_for_every_arrival_order() {
        let runs = hh_trace::for_every_choice(reorder_pops_in_issue_order);
        assert_eq!(runs, 24, "4! arrival orders");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_out_of_order_arrivals_until_their_turn() {
        let mut b = ReorderBuffer::new();
        b.insert(2, "c");
        b.insert(1, "b");
        assert!(!b.ready());
        assert_eq!(b.pop_in_order(), None);
        assert_eq!(b.buffered(), 2);
        b.insert(0, "a");
        assert!(b.ready());
        assert_eq!(b.pop_in_order(), Some((0, "a")));
        assert_eq!(b.pop_in_order(), Some((1, "b")));
        assert_eq!(b.pop_in_order(), Some((2, "c")));
        assert_eq!(b.pop_in_order(), None);
        assert_eq!(b.committed(), 3);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_is_rejected() {
        let mut b = ReorderBuffer::new();
        b.insert(0, ());
        b.insert(0, ());
    }

    #[test]
    fn canary_pop_breaks_order() {
        let mut b = ReorderBuffer::new();
        b.insert(0, "a");
        b.insert(3, "d");
        assert_eq!(b.pop_any_latest(), Some((3, "d")));
        assert_eq!(b.committed(), 1);
        // Older completions keep arriving after the shuffled pop; they
        // must buffer (and later pop) without tripping the replay guard.
        b.insert(1, "b");
        assert_eq!(b.pop_any_latest(), Some((1, "b")));
        assert_eq!(b.pop_any_latest(), Some((0, "a")));
        assert_eq!(b.committed(), 3);
    }
}
