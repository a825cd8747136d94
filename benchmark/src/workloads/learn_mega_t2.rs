//! `learn_mega_t2` — the largest Table 1 design, limited examples, two
//! engine threads.
//!
//! One op: `CoiMiner::new` + `ParallelEngine::learn` on MegaBoomLite with
//! rd = x3-only examples (the paper's Fig. 5 regime). Big cones, the parallel
//! scheduler, and the only workload where backtracking and
//! `AbductionSession` reuse fire. Per-query fixed cost is a small share
//! here; propagation and scheduling are a large one.

use super::{Ctx, Workload, LEARN_ROWS};
use crate::pipeline::{self, Core, Examples, InvariantChecks, Prepared, Problem};
use crate::samples::{timed, Samples};
use hh_smt::Predicate;
use hh_uarch::boomlite::BoomVariant;

pub struct LearnMega {
    state_bits: u64,
    problem: Problem,
    prepared: Prepared,
    checks: InvariantChecks,
    /// Solution table of the latest op, for the layer replay.
    solutions: Vec<(Predicate, Vec<Predicate>)>,
}

impl LearnMega {
    pub fn new(ctx: Ctx) -> Result<LearnMega, String> {
        let core = Core::Boom(if ctx.quick {
            BoomVariant::Small
        } else {
            BoomVariant::Mega
        });
        let problem = Problem {
            core,
            safe: core.expected()?.safe,
            pairs: 1,
            seed: ctx.seed,
            examples: Examples::Limited,
            threads: ctx.threads(2),
        };
        let design = core.build();
        let prepared = pipeline::prepare(&design, &problem, &mut Samples::default())?;
        Ok(LearnMega {
            state_bits: design.state_bits(),
            problem,
            prepared,
            checks: InvariantChecks::default(),
            solutions: Vec::new(),
        })
    }
}

impl Workload for LearnMega {
    fn state_bits(&self) -> u64 {
        self.state_bits
    }

    fn op(&mut self, out: &mut Samples) -> Result<(), String> {
        let prepared = &self.prepared;
        let (learned, wall_s) = timed("bench.op", || {
            pipeline::learn(prepared, self.problem.threads, out)
        });
        let learned = learned?;
        self.checks
            .check(&learned.invariant, &prepared.miter, &prepared.props)?;
        out.push("wall_s", wall_s);
        out.push("learn_s", learned.learn_s);
        self.solutions = learned.solutions;
        Ok(())
    }

    fn probe(&mut self, out: &mut Samples) -> Result<(), String> {
        let (_, prepared) = pipeline::stage_probe(&self.problem, out)?;
        pipeline::cone_replay(&prepared, &self.solutions, out)
    }

    fn rows(&self) -> Vec<&'static str> {
        [&["hhoudini.mine.new_s"][..], &LEARN_ROWS].concat()
    }
}
