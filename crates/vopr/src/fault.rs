//! The fault vocabulary and the per-seed fault schedule.
//!
//! A [`FaultPlan`] is an ordered list of faults generated from the seed's
//! RNG. Each fault targets one seam the production crates expose for the
//! simulator (see `docs/VOPR.md` for the full map):
//!
//! | fault | seam | expected engine behaviour |
//! |---|---|---|
//! | [`Fault::WorkerDeath`] | `SimDriver::worker_dies` / `inject_worker_panic` | run poisoned, `learn` returns `None` |
//! | [`Fault::SinkDetach`] | `Solver::take_proof_sink` at a budget round | transparent: identical verdict |
//! | [`Fault::CheckpointCrash`] | `ServeState::checkpoint_crash_after` | restart restores the last good state |
//!
//! Commit *reordering* is not listed: it is not a fault but the ambient
//! nondeterminism every run carries (the driver's window picks).
//!
//! The ordered-list representation is what makes `--minimize` trivial: a
//! failing seed is re-run under prefixes of its plan until the shortest
//! still-failing prefix is found.

use crate::rng::SplitMix64;
use std::fmt;

/// One injected fault. See the module table for seam and semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The worker solving job `job` dies (panics) mid-solve.
    WorkerDeath {
        /// Job index (issue order) whose worker dies.
        job: usize,
    },
    /// Detach the DRAT proof sink from the SAT solver once `at_round`
    /// budget rounds have elapsed — mid-stream, between two rounds of an
    /// in-progress incremental solve.
    SinkDetach {
        /// Budget-round count after which the sink is taken.
        at_round: u64,
    },
    /// Kill a serve checkpoint between the tmp-write and the rename of its
    /// `at_write`-th atomic file write.
    CheckpointCrash {
        /// 0-based index of the atomic write that never renames.
        at_write: usize,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::WorkerDeath { job } => write!(f, "worker-death(job={job})"),
            Fault::SinkDetach { at_round } => write!(f, "sink-detach(round={at_round})"),
            Fault::CheckpointCrash { at_write } => write!(f, "checkpoint-crash(write={at_write})"),
        }
    }
}

/// The ordered fault schedule of one seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Faults in injection order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Draws a plan from the seed's RNG. Every fault kind is exercised
    /// with substantial probability so a ~32-seed CI set covers the whole
    /// vocabulary many times over, but no kind is certain — fault-free
    /// runs keep the checkers honest on the happy path too.
    pub fn generate(rng: &mut SplitMix64) -> FaultPlan {
        let mut faults = Vec::new();
        if rng.chance(1, 3) {
            faults.push(Fault::WorkerDeath {
                job: rng.below(12) as usize,
            });
        }
        if rng.chance(1, 2) {
            faults.push(Fault::SinkDetach {
                at_round: 1 + rng.below(4),
            });
        }
        if rng.chance(1, 2) {
            // One design, one job: VERSION, spec, job meta, solutions.
            faults.push(Fault::CheckpointCrash {
                at_write: rng.below(4) as usize,
            });
        }
        FaultPlan { faults }
    }

    /// The first `n` faults — the probe `--minimize` re-runs with.
    pub fn prefix(&self, n: usize) -> FaultPlan {
        FaultPlan {
            faults: self.faults[..n.min(self.faults.len())].to_vec(),
        }
    }

    /// The job whose worker dies, if any (first death wins; the engine
    /// stops at the first poisoning anyway).
    pub fn worker_death(&self) -> Option<usize> {
        self.faults.iter().find_map(|f| match f {
            Fault::WorkerDeath { job } => Some(*job),
            _ => None,
        })
    }

    /// Budget round after which the proof sink detaches, if any.
    pub fn sink_detach(&self) -> Option<u64> {
        self.faults.iter().find_map(|f| match f {
            Fault::SinkDetach { at_round } => Some(*at_round),
            _ => None,
        })
    }

    /// Atomic-write index at which the serve checkpoint crashes, if any.
    pub fn checkpoint_crash(&self) -> Option<usize> {
        self.faults.iter().find_map(|f| match f {
            Fault::CheckpointCrash { at_write } => Some(*at_write),
            _ => None,
        })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fault}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = FaultPlan::generate(&mut SplitMix64::new(5));
        let b = FaultPlan::generate(&mut SplitMix64::new(5));
        assert_eq!(a, b);
    }

    #[test]
    fn seed_set_covers_the_whole_vocabulary() {
        // The CI smoke job runs seeds 0..32; every fault kind must appear
        // somewhere in that window or the acceptance criterion is void.
        let (mut death, mut sink, mut ckpt) = (0, 0, 0);
        for seed in 0..32u64 {
            let plan = FaultPlan::generate(&mut SplitMix64::new(seed).fork(0xFA));
            for f in &plan.faults {
                match f {
                    Fault::WorkerDeath { .. } => death += 1,
                    Fault::SinkDetach { .. } => sink += 1,
                    Fault::CheckpointCrash { .. } => ckpt += 1,
                }
            }
        }
        assert!(
            death > 0 && sink > 0 && ckpt > 0,
            "seed set misses a fault kind: deaths={death} sinks={sink} ckpts={ckpt}"
        );
    }

    #[test]
    fn prefixes_shrink_monotonically() {
        let mut rng = SplitMix64::new(3);
        // Draw until we get a non-trivial plan.
        let plan = loop {
            let p = FaultPlan::generate(&mut rng);
            if p.faults.len() >= 2 {
                break p;
            }
        };
        assert_eq!(plan.prefix(0).faults.len(), 0);
        assert_eq!(plan.prefix(1).faults.len(), 1);
        assert_eq!(plan.prefix(plan.faults.len() + 7), plan);
    }
}
