//! `versus_small` — the §6.3 comparison on SmallBoomLite.
//!
//! One op, on a prepared miter with rich examples and one engine thread:
//! the hierarchical learn, then HOUDINI, then SORCAR over `mine_global`'s
//! pool. The hierarchical part is the per-query-fixed-cost regime (dozens of
//! cold few-millisecond sessions, no backtracks, no session reuse); the
//! baselines use `hh-sat` the other way — a few huge monolithic incremental
//! solves — so a SAT change tuned for tiny cones that hurts deep solves
//! shows here.

use super::{Ctx, Workload, LEARN_ROWS};
use crate::pipeline::{self, Core, Examples, InvariantChecks, Prepared, Problem};
use crate::samples::{timed, Samples};
use hh_smt::Predicate;
use hh_uarch::boomlite::BoomVariant;
use hhoudini::baselines::{houdini, sorcar, BaselineBudget, BaselineOutcome, BaselineStats};
use hhoudini::PredicateStore;
use std::time::Duration;

pub struct VersusSmall {
    state_bits: u64,
    problem: Problem,
    prepared: Prepared,
    checks: InvariantChecks,
    /// Solution table of the latest op, for the layer replay.
    solutions: Vec<(Predicate, Vec<Predicate>)>,
}

impl VersusSmall {
    pub fn new(ctx: Ctx) -> Result<VersusSmall, String> {
        let core = if ctx.quick {
            Core::Rocket
        } else {
            Core::Boom(BoomVariant::Small)
        };
        let problem = Problem {
            core,
            safe: core.expected()?.safe,
            pairs: 1,
            seed: ctx.seed,
            examples: Examples::Rich,
            threads: 1,
        };
        let design = core.build();
        let prepared = pipeline::prepare(&design, &problem, &mut Samples::default())?;
        Ok(VersusSmall {
            state_bits: design.state_bits(),
            problem,
            prepared,
            checks: InvariantChecks::default(),
            solutions: Vec::new(),
        })
    }
}

/// A baseline either proves the property within its budget or the op fails.
fn proved(
    which: &str,
    (outcome, stats): (BaselineOutcome, BaselineStats),
    prepared: &Prepared,
) -> Result<BaselineStats, String> {
    match outcome {
        BaselineOutcome::Proved(inv) if prepared.props.iter().all(|p| inv.contains(p)) => Ok(stats),
        BaselineOutcome::Proved(_) => Err(format!("{which} dropped a property predicate")),
        BaselineOutcome::NoInvariant => Err(format!("{which} found no invariant")),
        BaselineOutcome::BudgetExceeded => Err(format!("{which} exceeded its 60 s budget")),
    }
}

impl Workload for VersusSmall {
    fn state_bits(&self) -> u64 {
        self.state_bits
    }

    fn op(&mut self, out: &mut Samples) -> Result<(), String> {
        let prepared = &self.prepared;
        let netlist = prepared.miter.netlist();
        let budget = BaselineBudget {
            max_time: Duration::from_secs(60),
            ..BaselineBudget::default()
        };
        let (result, wall_s) = timed("bench.op", || {
            let learned = pipeline::learn(prepared, self.problem.threads, out)?;
            let (pool, _) = timed("hhoudini.mine.global", || {
                let miner = pipeline::new_miner(prepared);
                let mut store = PredicateStore::new();
                let ids = miner.mine_global(&mut store);
                store.resolve(&ids)
            });
            let (h, houdini_s) = timed("hhoudini.baselines.houdini", || {
                houdini(netlist, &pool, &prepared.props, &budget)
            });
            let (s, sorcar_s) = timed("hhoudini.baselines.sorcar", || {
                sorcar(netlist, &pool, &prepared.props, &budget)
            });
            Ok::<_, String>((learned, pool.len(), (h, houdini_s), (s, sorcar_s)))
        });
        let (learned, pool_size, (h, houdini_s), (s, sorcar_s)) = result?;
        self.checks
            .check(&learned.invariant, &prepared.miter, &prepared.props)?;
        let h = proved("HOUDINI", h, prepared)?;
        let s = proved("SORCAR", s, prepared)?;
        out.push("wall_s", wall_s);
        out.push("learn_s", learned.learn_s);
        out.push("houdini_s", houdini_s);
        out.push("sorcar_s", sorcar_s);
        out.push("hhoudini.mine.global_pool", pool_size as f64);
        out.push("hhoudini.baselines.houdini_rounds", h.rounds as f64);
        out.push("hhoudini.baselines.sorcar_rounds", s.rounds as f64);
        self.solutions = learned.solutions;
        Ok(())
    }

    fn probe(&mut self, out: &mut Samples) -> Result<(), String> {
        let (_, prepared) = pipeline::stage_probe(&self.problem, out)?;
        pipeline::cone_replay(&prepared, &self.solutions, out)
    }

    fn rows(&self) -> Vec<&'static str> {
        [
            &["hhoudini.mine.new_s"][..],
            &LEARN_ROWS,
            &[
                "hhoudini.mine.global_s",
                "hhoudini.baselines.houdini_s",
                "hhoudini.baselines.sorcar_s",
            ],
        ]
        .concat()
    }
}
