//! Virtual-execution seam for deterministic whole-engine simulation.
//!
//! [`ParallelEngine::learn_sim`](crate::ParallelEngine::learn_sim) runs the
//! *exact* scheduler of the threaded engine — same issue priorities, same
//! single-commit reorder loop, same memo/backtracking state machine — but
//! replaces the worker pool with a virtual one: issued jobs wait in a
//! pending list and a [`SimDriver`] decides which in-flight job "finishes"
//! next; the chosen job is then solved synchronously on the calling thread.
//! Because the driver is the *only* source of nondeterminism, a seeded
//! driver (hh-vopr's PRNG-backed one) reproduces an entire run bit-for-bit
//! from its seed, while still exploring completion interleavings a real
//! thread pool could produce.
//!
//! The engine's thread count bounds the reordering window: with `t`
//! configured threads, only the `t` oldest pending jobs are eligible to
//! complete (a real pool of `t` workers pulls jobs in queue order, so a job
//! can only overtake the `t-1` jobs ahead of it). `t = 1` degenerates to
//! FIFO — the serial schedule. No more than
//! [`ISSUE_WINDOW`](crate::ISSUE_WINDOW) jobs are ever pending, so a larger
//! `t` makes every pending job eligible.

/// A scheduler transition observed by a [`SimDriver`] during virtual
/// execution. Sequence numbers are job issue indices (commit order equals
/// issue order when the engine is healthy — hh-vopr's commit-order checker
/// asserts exactly that).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// A job entered the virtual pool (scheduler issue point).
    Issue {
        /// Issue index of the job (also its commit sequence number).
        job: usize,
    },
    /// The driver picked this job to complete; its result is now buffered
    /// in the reorder buffer (worker → scheduler arrival point).
    Arrival {
        /// Issue index of the completing job.
        job: usize,
    },
    /// The scheduler committed this job's result (reorder-buffer exit).
    Commit {
        /// Commit sequence number (position in the commit order).
        seq: usize,
        /// Issue index of the committed job.
        job: usize,
    },
    /// The virtual worker solving this job died before producing a result
    /// (fault injection); the run is poisoned.
    WorkerDeath {
        /// Issue index of the job whose worker died.
        job: usize,
    },
}

/// The nondeterminism oracle for virtual execution.
///
/// All scheduling freedom the real thread pool has — which in-flight job
/// finishes next, whether a worker dies mid-job — is delegated to this
/// trait, so a deterministic implementation makes the whole engine run a
/// pure function of the driver. See [`crate::sim`] module docs.
pub trait SimDriver {
    /// Chooses which in-flight job completes next. `eligible` holds the
    /// issue indices of the jobs in the reordering window, oldest first,
    /// and is never empty; the return value is an *index into `eligible`*
    /// (out-of-range picks are clamped to the last entry).
    fn pick(&mut self, eligible: &[usize]) -> usize;

    /// Whether the virtual worker solving `job` dies before completing it.
    /// A death poisons the run: the engine stops committing, surfaces
    /// `poisoned` in its [`Stats`](crate::Stats) and returns no invariant.
    fn worker_dies(&mut self, job: usize) -> bool {
        let _ = job;
        false
    }

    /// Observes a scheduler transition (issue, arrival, commit, death).
    /// Drivers typically log these for invariant checking.
    fn observe(&mut self, ev: &SchedEvent) {
        let _ = ev;
    }
}

/// A trivial driver: completions in issue order (FIFO), no faults. Running
/// [`learn_sim`](crate::ParallelEngine::learn_sim) with it reproduces the
/// serial schedule at any thread count.
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoDriver;

impl SimDriver for FifoDriver {
    fn pick(&mut self, _eligible: &[usize]) -> usize {
        0
    }
}
