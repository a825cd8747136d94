//! Engine-level integration: the worker pool against the thread-free serial
//! schedule, memoisation and scheduling telemetry, baseline cross-checks —
//! all on real processor designs rather than toy circuits.

mod common;

use common::{alu_set, boom_set, setup};
use hh_suite::hhoudini::baselines::BaselineBudget;
use hh_suite::hhoudini::mine::{CoiMiner, Miner};
use hh_suite::hhoudini::{EngineConfig, FifoDriver, Invariant, ParallelEngine, PredicateStore};
use hh_suite::isa::Mnemonic;
use hh_suite::netlist::miter::Miter;
use hh_suite::netlist::Netlist;
use hh_suite::sat::SolveResult;
use hh_suite::smt::{
    abduct, AbductionResult, AbductionSession, EncodeCache, Predicate, TransitionEncoding,
};
use hh_suite::uarch::boomlite::{boom_lite, BoomVariant};
use hh_suite::uarch::rocketlite::rocket_lite;
use hh_suite::uarch::Design;
use hh_suite::veloct::examples::generate_examples_custom;
use hh_suite::veloct::{instruction_patterns, BaselineKind, Veloct, VeloctConfig};

/// The serial reference: the engine's virtual backend with completions in
/// issue order and a window of one job — no thread is spawned, and every
/// job is solved on the calling thread before the next is picked.
fn learn_serial(
    miter: &Miter,
    examples: &[hh_suite::netlist::eval::StateValues],
    safe: &[Mnemonic],
    props: &[Predicate],
) -> Invariant {
    let miner = CoiMiner::new(miter, examples, Some(instruction_patterns(safe)), vec![]);
    let mut serial = ParallelEngine::new(miter.netlist(), miner, EngineConfig::default(), 1);
    serial
        .learn_sim(props, &mut FifoDriver)
        .expect("serial invariant")
}

/// Checks `(⋀ premises) ∧ target ⟹ target'` (relative induction, Def.
/// 2.4) on a fresh encoding and solver, sharing no session code with the
/// engine.
fn check_relative_inductive(netlist: &Netlist, premises: &[Predicate], target: &Predicate) -> bool {
    let mut enc = TransitionEncoding::new(netlist);
    let now = target.encode_current(&mut enc);
    enc.assert_lit(now);
    for pred in premises {
        let l = pred.encode_current(&mut enc);
        enc.assert_lit(l);
    }
    let next = target.encode_next(&mut enc);
    enc.assert_lit(!next);
    enc.cnf_mut().solver_mut().solve() == SolveResult::Unsat
}

/// A pool of `threads` workers learns exactly the serial reference's
/// invariant, and both are inductive.
fn assert_pool_matches_serial(design: &Design, safe: &[Mnemonic], threads: usize) {
    let (miter, examples, props) = setup(design, safe);
    let inv_s = learn_serial(&miter, &examples, safe, &props);

    let miner_p = CoiMiner::new(&miter, &examples, Some(instruction_patterns(safe)), vec![]);
    let mut par = ParallelEngine::new(miter.netlist(), miner_p, EngineConfig::default(), threads);
    let inv_p = par.learn(&props).expect("parallel invariant");

    assert!(inv_s.verify_monolithic(miter.netlist()));
    assert!(inv_p.verify_monolithic(miter.netlist()));
    assert_eq!(
        inv_s.preds(),
        inv_p.preds(),
        "the pool must find the serial schedule's invariant"
    );
}

#[test]
fn serial_and_parallel_agree_on_rocketlite() {
    assert_pool_matches_serial(&rocket_lite(16), &alu_set(), 3);
}

#[test]
fn serial_and_parallel_agree_on_boomlite() {
    assert_pool_matches_serial(&boom_lite(BoomVariant::Small, 16), &boom_set(), 4);
}

#[test]
fn streaming_engine_is_deterministic_across_thread_counts() {
    // The streaming scheduler commits results in issue order, so the learned
    // invariant — and the task DAG itself — must be identical for any worker
    // count, and identical to the thread-free serial schedule's.
    let design = rocket_lite(16);
    let safe = alu_set();
    let (miter, examples, props) = setup(&design, &safe);
    let patterns = instruction_patterns(&safe);

    let inv_s = learn_serial(&miter, &examples, &safe, &props);
    assert!(inv_s.verify_monolithic(miter.netlist()));

    let mut reference: Option<(Vec<_>, u64, u64)> = None;
    for threads in [1, 2, 4] {
        let miner = CoiMiner::new(&miter, &examples, Some(patterns.clone()), vec![]);
        let mut par = ParallelEngine::new(miter.netlist(), miner, EngineConfig::default(), threads);
        let inv_p = par.learn(&props).expect("parallel invariant");
        assert_eq!(
            inv_s.preds(),
            inv_p.preds(),
            "{threads}-thread streaming engine must match serial"
        );
        // The committed task order (discovery order) must also be stable,
        // and with it the memo hits: which queued targets the issue phase
        // finds already solved is a function of commit order alone.
        let preds: Vec<_> = par.stats().tasks.iter().map(|t| t.pred).collect();
        let stats = par.stats().counters;
        assert!(stats.memo_hits > 0, "overlapping cones must hit the memo");
        let resident = stats.session_resident_bytes;
        assert!(resident > 0);
        match &reference {
            None => reference = Some((preds, stats.memo_hits, resident)),
            Some((expect, hits, expect_resident)) => {
                assert_eq!(
                    *expect_resident, resident,
                    "parked-session bytes must not depend on thread count"
                );
                assert_eq!(
                    expect, &preds,
                    "task commit order must not depend on thread count"
                );
                assert_eq!(
                    *hits, stats.memo_hits,
                    "memo hits must not depend on thread count"
                );
            }
        }
    }
}

#[test]
fn retries_with_witness_reuse_are_deterministic_across_thread_counts() {
    // Limited examples (rd = x3 only, the paper's Fig. 5 regime) let
    // spurious predicates through mining, so the engine backtracks and
    // sessions re-trim on retries, over solvers that carry what earlier
    // queries learnt. That must not make the result depend on the
    // schedule. Every session parks after every query and 19 of them
    // answer again. The work counts are pinned.
    let design = boom_lite(BoomVariant::Small, 16);
    let safe: Vec<Mnemonic> = alu_set()
        .into_iter()
        .filter(|&m| m != Mnemonic::Auipc)
        .collect();
    let (miter, _, props) = setup(&design, &safe);
    let examples = generate_examples_custom(&design, &miter, &safe, 1, 42, true, &[3])
        .expect("safe set examples");
    let patterns = instruction_patterns(&safe);

    let mut reference = None;
    for threads in [1, 2, 4] {
        let miner = CoiMiner::new(&miter, &examples, Some(patterns.clone()), vec![]);
        let mut par = ParallelEngine::new(miter.netlist(), miner, EngineConfig::default(), threads);
        let inv = par.learn(&props).expect("invariant");
        let queries = par.stats().smt_queries;
        let stats = par.stats().counters;
        assert!(stats.backtracks > 0, "limited examples must backtrack");
        assert_eq!(
            (queries, stats.backtracks, stats.session_hits),
            (70, 19, 19)
        );
        assert_eq!(
            (
                stats.sat_solves,
                stats.sat_conflicts,
                stats.sat_propagations
            ),
            (186, 9_652, 1_488_169)
        );
        // Byte gauges come from capacities, not from the allocator or the
        // clock: the same at every thread count.
        let resident = (
            stats.session_resident_bytes,
            stats.encode_cache_resident_bytes,
        );
        assert!(resident.0 > 0 && resident.1 > 0);
        match &reference {
            None => {
                assert!(inv.verify_monolithic(miter.netlist()));
                reference = Some((inv.preds().to_vec(), resident));
            }
            Some((expect, expect_resident)) => {
                assert_eq!(
                    expect.as_slice(),
                    inv.preds(),
                    "{threads}-thread run must learn the 1-thread invariant"
                );
                assert_eq!(*expect_resident, resident, "{threads} threads");
            }
        }
    }
}

#[test]
fn session_cache_ablation_preserves_results_and_saves_encoding() {
    // The engine answers every query through a live session over the shared
    // encode cache. The reference is the path with neither: each memoised
    // solution must be a valid relative-induction step on its own, and a
    // fresh `abduct` over the target's re-mined candidates must pick the
    // same premises. RocketLite does not backtrack, so no candidate was
    // ever filtered by `P_fail` and the re-mined set is the set the engine
    // asked about. Each target's session over a shared encode cache is then
    // asked the same query and re-asked, as a retry would, without its
    // abduct's first member: both answers must be the fresh ones, and the
    // watch store parked after each query (its live watchers plus one
    // header per literal) must reserve at most twice its live bytes.
    let design = rocket_lite(16);
    let safe = alu_set();
    let (miter, examples, props) = setup(&design, &safe);
    let patterns = instruction_patterns(&safe);
    let netlist = miter.netlist();

    let miner = CoiMiner::new(&miter, &examples, Some(patterns.clone()), vec![]);
    let mut eng = ParallelEngine::new(netlist, miner, EngineConfig::default(), 1);
    eng.learn(&props).expect("invariant");
    let stats = eng.stats().counters;
    assert_eq!(stats.backtracks, 0);
    assert_eq!(stats.session_hits, 0, "no retry, no session reuse");

    let config = EngineConfig::default().abduction;
    let mut miner = CoiMiner::new(&miter, &examples, Some(patterns), vec![]);
    let mut store = PredicateStore::new();
    let cache = std::sync::Arc::new(EncodeCache::new(netlist));
    let parked_small = |result: &AbductionResult| {
        let (reserved, live) = (
            result.telemetry.counters.sat_watch_bytes,
            result.telemetry.watch_live_bytes,
        );
        assert!(
            0 < live && reserved <= 2 * live,
            "watch store reserves {reserved} bytes for {live} live"
        );
    };
    for (target, premises) in eng.solutions() {
        assert!(
            check_relative_inductive(netlist, &premises, &target),
            "{target:?} is not inductive relative to its memoised premises"
        );
        let mut ids = miner.mine(&target, &mut store);
        ids.sort_unstable();
        ids.dedup();
        let cands = store.resolve(&ids);
        let first = abduct(netlist, &target, &cands, &config)
            .abduct
            .expect("fresh query must find an abduct");
        let mut fresh: Vec<Predicate> = first.iter().map(|&i| cands[i].clone()).collect();
        fresh.sort();
        let mut premises = premises;
        premises.sort();
        assert_eq!(fresh, premises, "fresh abduct of {target:?} differs");

        let mut session =
            AbductionSession::with_cache(netlist, target.clone(), config, cache.clone(), true);
        let asked = session.solve(&cands);
        assert_eq!(asked.abduct.as_ref(), Some(&first), "{target:?}: session");
        parked_small(&asked);
        let mut retry = cands.clone();
        retry.remove(first[0]);
        let reasked = session.solve(&retry);
        let fresh = abduct(netlist, &target, &retry, &config);
        assert_eq!(reasked.abduct, fresh.abduct, "{target:?}: session retry");
        parked_small(&reasked);
    }
}

#[test]
fn task_dag_exhibits_parallelism() {
    let design = boom_lite(BoomVariant::Small, 16);
    let safe: Vec<Mnemonic> = alu_set()
        .into_iter()
        .filter(|&m| m != Mnemonic::Auipc)
        .collect();
    let (miter, examples, props) = setup(&design, &safe);
    let patterns = instruction_patterns(&safe);
    let miner = CoiMiner::new(&miter, &examples, Some(patterns), vec![]);
    let mut par = ParallelEngine::new(miter.netlist(), miner, EngineConfig::default(), 2);
    par.learn(&props).expect("invariant");
    let stats = par.stats();
    // Figure 2's premise: simulated time falls as cores increase, down to
    // the span, and the span is far below the serial sum.
    let t1 = stats.simulated_time(1);
    let t4 = stats.simulated_time(4);
    let span = stats.span();
    assert!(t4 <= t1);
    assert!(span <= t4);
    assert!(
        span < t1 / 2,
        "task DAG should be at least 2x parallelisable (span {span:?} vs serial {t1:?})"
    );
}

#[test]
fn baselines_agree_with_hhoudini_on_provability() {
    let design = rocket_lite(16);
    let v = Veloct::with_config(
        &design,
        VeloctConfig {
            threads: 1,
            pairs_per_instr: 1,
            ..VeloctConfig::default()
        },
    );
    let safe = alu_set();
    let budget = BaselineBudget::default();
    let h = v.learn(&safe);
    assert!(h.invariant.is_some());
    let property = v.property(&v.build_miter(&safe).0).len();
    for kind in [BaselineKind::Houdini, BaselineKind::Sorcar] {
        let b = v.learn_baseline(&safe, kind, &budget);
        // The bounds that make a round cap unnecessary: HOUDINI drops at
        // least one member of pool ∪ property per round (at most
        // |pool| + |property| of them), SORCAR lowers 2·|remaining| + |set|.
        let pool = b.pool_size;
        let bound = match kind {
            BaselineKind::Houdini => pool + property + 1,
            BaselineKind::Sorcar => 2 * pool + property + 1,
        };
        assert!(
            b.stats.rounds <= bound,
            "{kind:?}: {} rounds",
            b.stats.rounds
        );
        let inv = b
            .invariant
            .unwrap_or_else(|| panic!("{kind:?} must also prove the set"));
        // The baselines learn a (possibly larger) invariant over the same
        // pool; H-Houdini's property-directed one should be no larger.
        assert!(h.invariant.as_ref().unwrap().len() <= inv.len());
    }
}
