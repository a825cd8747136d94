//! What `Veloct::learn_warm` answers from a closed memo table, against the
//! engine run it stands in for; and `Veloct::classify` across thread counts.

use hh_isa::{InstrClass, Mnemonic, ALL_MNEMONICS};
use hh_uarch::boomlite::{boom_lite, BoomVariant};
use hh_uarch::rocketlite::rocket_lite;
use hhoudini::mine::CoiMiner;
use hhoudini::{EngineConfig, Invariant, ParallelEngine};
use std::time::Duration;
use veloct::examples::{generate_examples, generate_examples_custom};
use veloct::{default_candidates, Veloct, VeloctConfig, WarmContext};

fn config(threads: usize) -> VeloctConfig {
    VeloctConfig {
        threads,
        pairs_per_instr: 1,
        ..VeloctConfig::default()
    }
}

/// The closed-memo report is the report of a `ParallelEngine` seeded with
/// the same table — invariant, solution table, seed counts, no task and no
/// query — minus the examples nobody generated. A table with an entry
/// missing is not answered that way: it is re-learned to the same result.
#[test]
fn closed_memo_report_equals_the_seeded_engine_run() {
    let alu = |also_mul: bool| -> Vec<Mnemonic> {
        ALL_MNEMONICS
            .iter()
            .copied()
            .filter(|m| match m.class() {
                InstrClass::Alu => true,
                InstrClass::Mul => also_mul,
                _ => false,
            })
            .collect()
    };
    // Table 2: the ALU class on RocketLite; on BoomLite the multiplier is
    // constant-time too, and `auipc` is unprovable.
    let mut boom_safe = alu(true);
    boom_safe.retain(|&m| m != Mnemonic::Auipc);
    for (design, safe) in [
        (rocket_lite(16), alu(false)),
        (boom_lite(BoomVariant::Small, 16), boom_safe),
    ] {
        for threads in [1, 2] {
            let cfg = config(threads);
            let veloct = Veloct::with_config(&design, cfg.clone());
            let cold = veloct.learn(&safe);
            let cold_inv = cold.invariant.expect("the ALU set proves");
            assert!(cold.num_examples > 0 && cold.stats.counters.examples_cycles > 0);
            let seeds = || WarmContext {
                encode_cache: None,
                seeds: cold.solutions.clone(),
            };

            // The engine run the closed path replaces.
            let (miter, patterns) = veloct.build_miter(&safe);
            let examples =
                generate_examples(&design, &miter, &safe, cfg.pairs_per_instr, cfg.seed).unwrap();
            let miner = CoiMiner::new(&miter, &examples, Some(patterns), vec![]);
            let mut engine =
                ParallelEngine::new(miter.netlist(), miner, EngineConfig::default(), threads);
            let seeded = engine.seed_solutions(&cold.solutions);
            let engine_inv = engine
                .learn(&veloct.property(&miter))
                .expect("a closed table proves");
            assert_eq!(engine.stats().num_tasks(), 0);
            assert_eq!(engine.stats().smt_queries, 0);

            let warm = veloct.learn_warm(&safe, seeds());
            let warm_inv = warm.invariant.expect("answered from the table");
            assert_eq!(warm_inv.preds(), engine_inv.preds());
            assert_eq!(warm_inv.preds(), cold_inv.preds());
            assert_eq!(warm.solutions, engine.solutions());
            assert_eq!(warm.memo_seeded, seeded);
            assert_eq!(warm.memo_reused, engine.seeds_reused());
            assert_eq!(warm.stats.num_tasks(), 0);
            assert_eq!(warm.stats.smt_queries, 0);
            assert!(warm.divergence.is_none());
            assert_eq!(warm.state_bits, cold.state_bits);
            // No example was simulated and no miner built.
            let c = warm.stats.counters;
            assert_eq!(
                (c.examples_cycles, c.examples_raw, c.examples_unique),
                (0, 0, 0)
            );
            assert_eq!(warm.num_examples, 0);
            assert_eq!(warm.examples_time, Duration::ZERO);
            assert_eq!(warm.mine_time, Duration::ZERO);

            // The same seeds through the path that always runs the engine:
            // same answer, examples regenerated.
            let seeded_run = veloct.learn_seeded(&safe, seeds());
            assert_eq!(seeded_run.invariant.unwrap().preds(), cold_inv.preds());
            assert_eq!(seeded_run.solutions, warm.solutions);
            assert_eq!(
                (seeded_run.memo_seeded, seeded_run.memo_reused),
                (warm.memo_seeded, warm.memo_reused)
            );
            assert_eq!(seeded_run.stats.smt_queries, 0);
            assert_eq!(seeded_run.num_examples, cold.num_examples);

            // One entry short of closed: the engine runs and re-learns it.
            let mut open = seeds();
            open.seeds.pop();
            let relearned = veloct.learn_warm(&safe, open);
            assert_eq!(relearned.invariant.unwrap().preds(), cold_inv.preds());
            assert!(relearned.stats.num_tasks() > 0);
            assert_eq!(relearned.num_examples, cold.num_examples);
            assert_eq!(relearned.memo_seeded, seeded - 1);
        }
    }
}

/// The warm path's premise on a run that backtracks: with one destination
/// register in the examples (rd = x3, the paper's Fig. 5 regime) spurious
/// predicates are mined, fail, and sweep the entries that used them, which
/// are solved again. The table the engine ends with is still closed, and
/// its closure from the properties is the learned invariant.
#[test]
fn closure_of_a_backtracking_runs_table_is_its_invariant() {
    let design = boom_lite(BoomVariant::Small, 16);
    let safe: Vec<Mnemonic> = ALL_MNEMONICS
        .iter()
        .copied()
        .filter(|&m| m.class() == InstrClass::Alu && m != Mnemonic::Auipc)
        .collect();
    for threads in [1, 2] {
        let cfg = config(threads);
        let veloct = Veloct::with_config(&design, cfg.clone());
        let (miter, patterns) = veloct.build_miter(&safe);
        let examples = generate_examples_custom(
            &design,
            &miter,
            &safe,
            cfg.pairs_per_instr,
            cfg.seed,
            true,
            &[3],
        )
        .unwrap();
        let miner = CoiMiner::new(&miter, &examples, Some(patterns), vec![]);
        let mut engine =
            ParallelEngine::new(miter.netlist(), miner, EngineConfig::default(), threads);
        let props = veloct.property(&miter);
        let learned = engine.learn(&props).expect("the ALU set proves");
        assert!(engine.stats().counters.backtracks > 0, "rd = x3 backtracks");
        let closed = Invariant::from_closed_table(&props, &engine.solutions())
            .expect("the final table is closed");
        assert_eq!(closed.preds(), learned.preds(), "threads={threads}");
    }
}

/// `classify` differential-tests its candidates on `threads` workers: the
/// rejected list — order, reasons, cycles — and everything after it are the
/// same at every thread count.
#[test]
fn classify_is_identical_across_thread_counts() {
    let design = rocket_lite(16);
    let candidates = default_candidates();
    let run = |threads| Veloct::with_config(&design, config(threads)).classify(&candidates);
    let one = run(1);
    assert!(!one.rejected.is_empty() && !one.safe.is_empty());
    for threads in [2, 4] {
        let many = run(threads);
        assert_eq!(many.rejected, one.rejected, "threads={threads}");
        assert_eq!(many.safe, one.safe);
        assert_eq!(many.num_examples, one.num_examples);
        let (m, o) = (many.stats.counters, one.stats.counters);
        assert_eq!(
            (m.examples_cycles, m.examples_raw),
            (o.examples_cycles, o.examples_raw)
        );
        assert_eq!(
            many.invariant.as_ref().map(|i| i.preds()),
            one.invariant.as_ref().map(|i| i.preds())
        );
        assert_eq!(many.solutions, one.solutions);
    }
}
