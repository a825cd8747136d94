//! The learning pipeline as the benchmark drives it: the same public calls
//! `Veloct::learn_warm` makes, each under its own benchmark span, plus the
//! per-cone *layer replay* that splits a learn into mining, encoding, clause
//! loading and solving from outside the crates.

use crate::expected::{self, Expected};
use crate::samples::{timed, Samples};
use crate::stats;
use hh_isa::Mnemonic;
use hh_netlist::coi::Coi;
use hh_netlist::eval::{InputValues, StateValues};
use hh_netlist::miter::Miter;
use hh_netlist::simp::SimpMap;
use hh_netlist::Bv;
use hh_sat::{SolveResult, Solver};
use hh_smt::{AbductionConfig, AbductionSession, EncodeCache, Pattern, Predicate};
use hh_smt::{QueryTelemetry, TransitionEncoding};
use hh_uarch::boomlite::{boom_lite, BoomVariant};
use hh_uarch::rocketlite::rocket_lite;
use hh_uarch::Design;
use hhoudini::mine::{CoiMiner, Miner};
use hhoudini::{EngineConfig, Invariant, ParallelEngine, PredicateStore, Stats};
use std::sync::Arc;
use veloct::{Veloct, VeloctConfig};

/// Datapath width of every benchmarked core (the repository's Table 1 size).
const XLEN: u32 = 16;

/// A builtin core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Core {
    /// The in-order RocketLite.
    Rocket,
    /// A BoomLite variant.
    Boom(BoomVariant),
}

impl Core {
    /// Runs the core's constructor.
    pub fn build(self) -> Design {
        match self {
            Core::Rocket => rocket_lite(XLEN),
            Core::Boom(v) => boom_lite(v, XLEN),
        }
    }

    /// The hand-written expected verdicts for this core's family.
    pub fn expected(self) -> Result<Expected, String> {
        Expected::parse(match self {
            Core::Rocket => expected::ROCKETLITE,
            Core::Boom(_) => expected::BOOMLITE,
        })
    }

    /// The `builtin` design kind the serve protocol knows this core by.
    pub fn serve_kind(self) -> &'static str {
        match self {
            Core::Rocket => "rocketlite",
            Core::Boom(BoomVariant::Small) => "boom-small",
            Core::Boom(BoomVariant::Medium) => "boom-medium",
            Core::Boom(BoomVariant::Large) => "boom-large",
            Core::Boom(BoomVariant::Mega) => "boom-mega",
        }
    }
}

/// Example richness: which destination registers example programs rotate
/// through. `Limited` is the paper's Fig. 5 regime (rd = x3 only), where
/// thin coverage lets spurious predicates survive mining and backtracking
/// (and with it `AbductionSession` reuse) fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Examples {
    /// The default full rotation — backtracks collapse to zero.
    Rich,
    /// rd = x3 only.
    Limited,
}

/// How one proposed safe set is turned into a learning problem.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The core.
    pub core: Core,
    /// The proposed safe set.
    pub safe: Vec<Mnemonic>,
    /// Paired executions per instruction.
    pub pairs: usize,
    /// Example-generation seed (the benchmark's `--seed`).
    pub seed: u64,
    /// Example richness.
    pub examples: Examples,
    /// Engine worker threads.
    pub threads: usize,
}

impl Problem {
    /// The `Veloct` configuration equivalent to this problem — defaults
    /// everywhere except the fields the benchmark varies.
    pub fn veloct_config(&self, certify: bool) -> VeloctConfig {
        VeloctConfig {
            threads: self.threads,
            pairs_per_instr: self.pairs,
            seed: self.seed,
            certify,
            ..VeloctConfig::default()
        }
    }
}

/// A learning problem with its inputs built: what `Veloct::learn_warm`
/// holds right before it constructs the miner.
#[derive(Debug)]
pub struct Prepared {
    /// The safe-set-constrained product circuit.
    pub miter: Miter,
    /// `InSafeSet` patterns of the proposed set.
    pub patterns: Vec<Pattern>,
    /// Positive examples.
    pub examples: Vec<StateValues>,
    /// The property: `Eq(o)` per observable.
    pub props: Vec<Predicate>,
}

/// Builds miter, examples and property for `problem` on `design`, each stage
/// under its span. Fails when example generation already refutes the set.
pub fn prepare(design: &Design, problem: &Problem, out: &mut Samples) -> Result<Prepared, String> {
    let veloct = Veloct::with_config(design, problem.veloct_config(false));
    let ((miter, patterns), _) = timed("hh-netlist.miter", || veloct.build_miter(&problem.safe));
    out.push("hh-netlist.miter_nodes", miter.netlist().num_nodes() as f64);
    let (examples, _) = timed("veloct.examples", || match problem.examples {
        Examples::Rich => veloct::examples::generate_examples(
            design,
            &miter,
            &problem.safe,
            problem.pairs,
            problem.seed,
        ),
        Examples::Limited => veloct::examples::generate_examples_custom(
            design,
            &miter,
            &problem.safe,
            problem.pairs,
            problem.seed,
            true,
            &[3],
        ),
    });
    let examples = examples.map_err(|d| {
        format!(
            "example generation diverged on {} at cycle {}",
            d.mnemonic.name(),
            d.cycle
        )
    })?;
    out.push("veloct.examples_n", examples.len() as f64);
    let props = veloct.property(&miter);
    Ok(Prepared {
        miter,
        patterns,
        examples,
        props,
    })
}

/// What one hierarchical learn produced.
#[derive(Debug)]
pub struct Learned {
    /// The invariant.
    pub invariant: Invariant,
    /// The engine's memoised `(target, premises)` table.
    pub solutions: Vec<(Predicate, Vec<Predicate>)>,
    /// Seconds inside `ParallelEngine::learn`.
    pub learn_s: f64,
}

/// Builds the miner and runs `ParallelEngine::learn` with default
/// configuration, recording the engine's telemetry.
pub fn learn(prepared: &Prepared, threads: usize, out: &mut Samples) -> Result<Learned, String> {
    let (miner, _) = timed("hhoudini.mine.new", || new_miner(prepared));
    let mut engine = ParallelEngine::new(
        prepared.miter.netlist(),
        miner,
        EngineConfig::default(),
        threads,
    );
    let (invariant, learn_s) = timed("hhoudini.learn", || engine.learn(&prepared.props));
    let invariant = invariant.ok_or("H-Houdini found no invariant for the expected safe set")?;
    record_stats(out, engine.stats(), invariant.len());
    Ok(Learned {
        invariant,
        solutions: engine.solutions(),
        learn_s,
    })
}

/// The Algorithm-2 miner over `prepared`'s examples.
pub fn new_miner(prepared: &Prepared) -> CoiMiner {
    CoiMiner::new(
        &prepared.miter,
        &prepared.examples,
        Some(prepared.patterns.clone()),
        vec![],
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Records one learn's `Stats` under the per-layer metric names. Counters are
/// looked up by name in `Stats::counters()`; a name the program no longer
/// reports is simply not recorded (and prints as "absent"), never an error.
pub fn record_stats(out: &mut Samples, stats: &Stats, inv_size: usize) {
    let counters = stats.counters();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v as f64)
    };
    for (metric, source) in [
        ("hh-smt.session.hit", "smt.session.hit"),
        ("hh-smt.session.miss", "smt.session.miss"),
        ("hh-smt.cache.hit", "smt.cache.hit"),
        ("hh-smt.cache.miss", "smt.cache.miss"),
        ("hh-smt.pool.imported", "smt.pool.imported"),
        ("hh-sat.conflicts", "sat.conflicts"),
        ("hh-sat.propagations", "sat.propagations"),
        ("hh-sat.arena_bytes", "sat.arena_bytes"),
        ("hh-sat.watch_bytes", "sat.watch_bytes"),
        ("hh-sat.simplify.runs", "sat.simplify.runs"),
        ("hhoudini.queries", "engine.query"),
        ("hhoudini.backtracks", "engine.backtrack"),
        ("hhoudini.memo.hit", "engine.memo.hit"),
    ] {
        if let Some(v) = counter(source) {
            out.push(metric, v);
        }
    }
    for (frac, hit, miss) in [
        (
            "hh-smt.session.hit_frac",
            "smt.session.hit",
            "smt.session.miss",
        ),
        ("hh-smt.cache.hit_frac", "smt.cache.hit", "smt.cache.miss"),
    ] {
        if let (Some(h), Some(m)) = (counter(hit), counter(miss)) {
            out.push(frac, ratio(h, h + m));
        }
    }
    let queries = stats.smt_queries as f64;
    let solve_s = stats.solve_time.as_secs_f64();
    let busy_s = stats.worker_busy_time.as_secs_f64();
    let wall_s = stats.wall_time.as_secs_f64();
    out.push("hh-smt.encode_s", stats.encode_time.as_secs_f64());
    out.push("hh-sat.solve_s", solve_s);
    if let Some(c) = counter("sat.conflicts") {
        out.push("hh-sat.conflicts_per_query", ratio(c, queries));
    }
    if let Some(p) = counter("sat.propagations") {
        out.push("hh-sat.props_per_s", ratio(p, solve_s));
    }
    let query_ms: Vec<f64> = stats
        .query_durations
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    if !query_ms.is_empty() {
        out.push("hh-smt.query_ms_p50", stats::percentile(&query_ms, 50.0));
        out.push("hh-smt.query_ms_p90", stats::percentile(&query_ms, 90.0));
    }
    out.push("hhoudini.tasks", stats.num_tasks() as f64);
    out.push("hhoudini.inv_size", inv_size as f64);
    out.push("hhoudini.queries_per_pred", ratio(queries, inv_size as f64));
    out.push("hhoudini.busy_s", busy_s);
    out.push(
        "hhoudini.idle_s",
        (stats.workers.max(1) as f64 * wall_s - busy_s).max(0.0),
    );
    out.push("hhoudini.occupancy", stats.occupancy());
    out.push("hhoudini.span_s", stats.span().as_secs_f64());
    out.push("hhoudini.work_s", stats.task_time.as_secs_f64());
    out.push("hhoudini.engine_wall_s", wall_s);
    out.push("hhoudini.workers", stats.workers.max(1) as f64);
}

/// The layer replay: for every memoised `(target, premises)` solution of a
/// learn, repeat — serially, on fresh state — the per-cone work the engine
/// did, one layer per span:
///
/// * `hhoudini.mine.mine` — `CoiMiner::mine(target)`;
/// * a cold `AbductionSession::solve` over the mined candidates, whose
///   `QueryTelemetry` gives the cone's variable/clause counts and the SAT
///   calls one query makes (minimisation probes included);
/// * the obligation CNF `premises ∧ target ∧ ¬target'` built through
///   `TransitionEncoding`, dumped, loaded into a standalone `hh_sat::Solver`
///   (`hh-sat.load`) and refuted there (`bench.replay.solve`).
///
/// Every cone must come back UNSAT with an abduct: the replay doubles as a
/// check that the solution table is what it claims to be.
pub fn cone_replay(
    prepared: &Prepared,
    solutions: &[(Predicate, Vec<Predicate>)],
    out: &mut Samples,
) -> Result<(), String> {
    let netlist = prepared.miter.netlist();
    let (_simp, _) = timed("hh-netlist.simp", || SimpMap::build(netlist));
    let (coi, _) = timed("hh-netlist.coi", || Coi::new(netlist));
    let mut miner = new_miner(prepared);
    let mut store = PredicateStore::new();
    let cache = Arc::new(EncodeCache::new(netlist));

    let mut cands_n = Vec::new();
    let mut cone_states = Vec::new();
    let mut vars = Vec::new();
    let mut clauses = Vec::new();
    let mut solves = 0u64;
    for (target, premises) in solutions {
        cone_states.push(coi.one_step(&target.all_states()).len() as f64);
        let (ids, _) = timed("hhoudini.mine.mine", || miner.mine(target, &mut store));
        let cands = store.resolve(&ids);
        cands_n.push(cands.len() as f64);

        let (telemetry, _): (Result<QueryTelemetry, String>, f64) =
            timed("bench.replay.session", || {
                let mut session = AbductionSession::with_cache(
                    netlist,
                    target.clone(),
                    AbductionConfig::paper_default(),
                    Arc::clone(&cache),
                    true,
                );
                let result = session.solve(&cands);
                result
                    .abduct
                    .map(|_| result.telemetry)
                    .ok_or_else(|| format!("replayed abduction of {target:?} found no abduct"))
            });
        let telemetry = telemetry?;
        vars.push(telemetry.vars as f64);
        clauses.push(telemetry.clauses as f64);
        solves += telemetry.solves;

        let ((n_vars, cnf), _) = timed("bench.replay.dump", || {
            let mut enc = TransitionEncoding::new(netlist);
            let now = target.encode_current(&mut enc);
            enc.assert_lit(now);
            for p in premises {
                let l = p.encode_current(&mut enc);
                enc.assert_lit(l);
            }
            let next = target.encode_next(&mut enc);
            enc.assert_lit(!next);
            let solver = enc.cnf().solver();
            (solver.num_vars(), solver.formula_clauses())
        });
        let (mut solver, _) = timed("hh-sat.load", || {
            let mut solver = Solver::new();
            for _ in 0..n_vars {
                solver.new_var();
            }
            for clause in &cnf {
                solver.add_clause(clause);
            }
            solver
        });
        let (verdict, _) = timed("bench.replay.solve", || solver.solve());
        if verdict != SolveResult::Unsat {
            return Err(format!(
                "memoised solution of {target:?} is not relatively inductive"
            ));
        }
    }
    if !solutions.is_empty() {
        out.push("hhoudini.mine.cands_med", stats::median(&cands_n));
        out.push("hh-netlist.cone_states_med", stats::median(&cone_states));
        out.push("hh-smt.vars_med", stats::median(&vars));
        out.push("hh-smt.clauses_med", stats::median(&clauses));
        out.push("hh-sat.solves", solves as f64);
        out.push(
            "hh-sat.solves_per_query",
            ratio(solves as f64, solutions.len() as f64),
        );
    }
    Ok(())
}

/// Times the simulator alone: a stream of NOPs through the base design,
/// reported as simulated cycles per second.
pub fn sim_probe(design: &Design, out: &mut Samples) {
    const CYCLES: usize = 2000;
    let netlist = &design.netlist;
    let mut nop = InputValues::zeros(netlist);
    nop.set_by_name(
        netlist,
        &design.instr_input,
        Bv::new(32, u64::from(hh_isa::Instruction::nop().encode())),
    );
    let inputs = vec![nop; CYCLES];
    let (trace, secs) = timed("bench.sim", || {
        hh_sim::simulate(netlist, StateValues::initial(netlist), &inputs)
    });
    std::hint::black_box(trace.cycles());
    out.push("hh-sim.cycles_per_s", ratio(CYCLES as f64, secs));
}

/// The stages in front of a learn, replayed from scratch under their spans:
/// core constructor, miter, examples, plus the simulator probe.
pub fn stage_probe(problem: &Problem, out: &mut Samples) -> Result<(Design, Prepared), String> {
    let (design, _) = timed("hh-uarch.build", || problem.core.build());
    out.push("hh-uarch.state_bits", design.state_bits() as f64);
    let prepared = prepare(&design, problem, out)?;
    sim_probe(&design, out);
    Ok((design, prepared))
}

/// Verdict checks on learned invariants.
///
/// `Invariant::verify_monolithic` costs as much as the learn it validates on
/// the large designs, and a run's ops all learn the same invariant. So each
/// *distinct* invariant is verified once; every later op must reproduce a
/// verified invariant exactly (the run-wide digest check), which makes its
/// verdict the one already established.
#[derive(Debug, Default)]
pub struct InvariantChecks {
    /// Wire form of the run's invariant, once verified.
    verified: Option<Vec<String>>,
}

/// The invariant as sorted wire strings — the form the serve protocol
/// returns and the form invariants are compared in.
pub fn wire(invariant: &Invariant, miter: &Miter) -> Vec<String> {
    let mut lines: Vec<String> = invariant
        .preds()
        .iter()
        .map(|p| p.to_wire(miter.netlist()))
        .collect();
    lines.sort();
    lines
}

/// FNV-1a digest of a wire-form invariant, for display.
pub fn digest(wire: &[String]) -> u64 {
    hh_proof::cert::fnv1a(wire.join("\n").as_bytes())
}

impl InvariantChecks {
    /// Checks one op's invariant: it proves every property predicate, passes
    /// `verify_monolithic` (once per distinct invariant), and is identical
    /// to the invariant of every earlier op of the run.
    pub fn check(
        &mut self,
        invariant: &Invariant,
        miter: &Miter,
        props: &[Predicate],
    ) -> Result<(), String> {
        if let Some(p) = props.iter().find(|p| !invariant.contains(p)) {
            return Err(format!("invariant does not contain property {p:?}"));
        }
        let lines = wire(invariant, miter);
        match &self.verified {
            Some(first) if *first == lines => Ok(()),
            Some(first) => Err(format!(
                "invariant digest {:016x} differs from the run's {:016x}",
                digest(&lines),
                digest(first)
            )),
            None => {
                if !invariant.verify_monolithic(miter.netlist()) {
                    return Err("invariant fails verify_monolithic".to_string());
                }
                self.verified = Some(lines);
                Ok(())
            }
        }
    }

    /// The verified invariant in wire form, if an op has passed yet.
    pub fn verified(&self) -> Option<&[String]> {
        self.verified.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rocket_problem() -> Problem {
        Problem {
            core: Core::Rocket,
            safe: Core::Rocket.expected().unwrap().safe,
            pairs: 1,
            seed: 7,
            examples: Examples::Rich,
            threads: 1,
        }
    }

    #[test]
    fn staged_learn_verifies_and_replays_on_rocketlite() {
        let problem = rocket_problem();
        let design = problem.core.build();
        let mut out = Samples::default();
        let prepared = prepare(&design, &problem, &mut out).unwrap();
        let learned = learn(&prepared, 1, &mut out).unwrap();
        let mut checks = InvariantChecks::default();
        checks
            .check(&learned.invariant, &prepared.miter, &prepared.props)
            .unwrap();
        // The same invariant again is accepted without re-verification; a
        // different one is a digest mismatch.
        checks
            .check(&learned.invariant, &prepared.miter, &prepared.props)
            .unwrap();
        let smaller = Invariant::new(prepared.props.clone());
        let err = checks
            .check(&smaller, &prepared.miter, &prepared.props)
            .unwrap_err();
        assert!(err.contains("differs"), "{err}");

        cone_replay(&prepared, &learned.solutions, &mut out).unwrap();
        assert_eq!(
            out.median("hhoudini.inv_size"),
            Some(learned.invariant.len() as f64)
        );
        assert!(out.median("hh-sat.solves_per_query").unwrap() >= 1.0);
        assert!(out.median("hh-smt.clauses_med").unwrap() > 0.0);
        sim_probe(&design, &mut out);
        assert!(out.median("hh-sim.cycles_per_s").unwrap() > 0.0);
    }

    #[test]
    fn an_unsafe_entry_in_the_proposed_set_fails_the_op() {
        // What a corrupted `expected/rocketlite.txt` line does to the
        // learn-only workloads: `mul` leaks on RocketLite, so either example
        // generation diverges or no invariant exists.
        let mut problem = rocket_problem();
        problem.safe.push(Mnemonic::Mul);
        let design = problem.core.build();
        let mut out = Samples::default();
        let failed = match prepare(&design, &problem, &mut out) {
            Err(_) => true,
            Ok(prepared) => learn(&prepared, 1, &mut out).is_err(),
        };
        assert!(failed);
    }
}
