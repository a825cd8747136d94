//! End-to-end reproduction checks: the safe sets of the paper's Table 2 and
//! the soundness guarantees of the learned invariants.

mod common;

use common::{alu_set, boom_set, setup};
use hh_suite::hhoudini::mine::{CoiMiner, Miner};
use hh_suite::hhoudini::{EngineConfig, ParallelEngine, PredicateStore};
use hh_suite::isa::Mnemonic;
use hh_suite::netlist::miter::Miter;
use hh_suite::smt::Predicate;
use hh_suite::uarch::boomlite::{boom_lite, BoomVariant};
use hh_suite::uarch::rocketlite::rocket_lite;
use hh_suite::veloct::{default_candidates, instruction_patterns, Veloct, VeloctConfig};

fn fast_config() -> VeloctConfig {
    VeloctConfig {
        threads: 2,
        pairs_per_instr: 1,
        ..VeloctConfig::default()
    }
}

/// Table 2, RocketLite row: all ALU instructions (incl. lui/auipc) are safe;
/// mul-family, loads/stores are not.
#[test]
fn rocketlite_safe_set_matches_table2() {
    let design = rocket_lite(16);
    let report = Veloct::with_config(&design, fast_config()).classify(&default_candidates());
    let safe = &report.safe;
    for m in alu_set() {
        assert!(safe.contains(&m), "{m} should be safe on RocketLite");
    }
    for m in [
        Mnemonic::Mul,
        Mnemonic::Mulh,
        Mnemonic::Mulhu,
        Mnemonic::Mulhsu,
    ] {
        assert!(
            !safe.contains(&m),
            "{m} must be unsafe on RocketLite (zero-skip)"
        );
    }
    assert!(!safe.contains(&Mnemonic::Lw));
    assert!(!safe.contains(&Mnemonic::Sw));
    assert!(report.invariant.is_some());
}

/// Table 2, BOOM row: mul-family becomes safe (pipelined multiplier), auipc
/// becomes unverifiable (jump-unit probe).
#[test]
fn boomlite_safe_set_matches_table2() {
    let design = boom_lite(BoomVariant::Small, 16);
    let report = Veloct::with_config(&design, fast_config()).classify(&default_candidates());
    let safe = &report.safe;
    for m in [
        Mnemonic::Mul,
        Mnemonic::Mulh,
        Mnemonic::Mulhu,
        Mnemonic::Mulhsu,
    ] {
        assert!(safe.contains(&m), "{m} should be safe on BoomLite");
    }
    assert!(
        !safe.contains(&Mnemonic::Auipc),
        "auipc must be rejected on BoomLite"
    );
    assert!(!safe.contains(&Mnemonic::Lw));
    assert!(!safe.contains(&Mnemonic::Sw));
    for m in alu_set() {
        if m != Mnemonic::Auipc {
            assert!(safe.contains(&m), "{m} should be safe on BoomLite");
        }
    }
    let inv = report.invariant.expect("invariant for the BOOM safe set");
    assert!(inv.len() > 20, "BOOM invariant should be substantial");
}

/// One predicate grammar: every predicate the miner offers — its global
/// pool and the candidates of every committed target, on the Table 2 sets
/// of RocketLite and SmallBoomLite — reads back through
/// `Predicate::from_wire` to itself, so any memo entry can be persisted and
/// certified, and `eval` and the encoder read each alike.
#[test]
fn every_mined_predicate_reads_back_through_the_wire() {
    for (design, safe) in [
        (rocket_lite(16), alu_set()),
        (boom_lite(BoomVariant::Small, 16), boom_set()),
    ] {
        let (miter, examples, props) = setup(&design, &safe);
        let miner = || CoiMiner::new(&miter, &examples, Some(instruction_patterns(&safe)), vec![]);
        let mut engine = ParallelEngine::new(miter.netlist(), miner(), EngineConfig::default(), 2);
        let inv = engine.learn(&props).expect("invariant");
        let mut miner = miner();
        let mut store = PredicateStore::new();
        let mut offered = miner.mine_global(&mut store);
        for target in inv.preds() {
            offered.extend(miner.mine(target, &mut store));
        }
        let offered = store.resolve(&offered);
        assert!(offered.iter().any(|p| matches!(p, Predicate::InSet { .. })));
        let netlist = miter.netlist();
        for p in &offered {
            let wire = p.to_wire(netlist);
            assert_eq!(
                Predicate::from_wire(&wire, netlist).as_ref(),
                Ok(p),
                "{wire}"
            );
        }
    }
}

/// The learned invariant is genuinely inductive: re-verified with one
/// monolithic SMT query over the full product design (the check the paper
/// performs for Rocketchip in §6.4).
#[test]
fn learned_invariants_verify_monolithically() {
    // RocketLite, ALU set.
    let design = rocket_lite(16);
    let v = Veloct::with_config(&design, fast_config());
    let report = v.learn(&alu_set());
    let inv = report.invariant.expect("invariant");
    let (miter, _) = v.build_miter(&alu_set());
    assert!(inv.verify_monolithic(miter.netlist()));
}

/// Precision sanity (Def. 4.7 / Appendix B): the invariant never constrains
/// the secret-bearing architectural registers — operand values stay free.
#[test]
fn invariant_does_not_constrain_secrets() {
    let design = rocket_lite(16);
    let v = Veloct::with_config(&design, fast_config());
    let report = v.learn(&alu_set());
    let inv = report.invariant.expect("invariant");
    let miter = Miter::build(&design.netlist);
    for &reg in &design.secret_regs {
        let (l, r) = miter.pair(reg);
        for p in inv.preds() {
            let (pl, pr) = p.states();
            assert!(
                !(pl == l && pr == r),
                "invariant constrains secret register {}",
                design.netlist.state_name(reg)
            );
        }
    }
}

/// Invariant sizes and task counts grow with design size (Table 1 / Fig. 5
/// shape), and the safe sets agree across BOOM variants.
#[test]
fn boom_variants_scale_consistently() {
    let mut prev_inv = 0usize;
    let mut prev_tasks = 0usize;
    for &variant in &[BoomVariant::Small, BoomVariant::Medium] {
        let design = boom_lite(variant, 16);
        let report = Veloct::with_config(&design, fast_config()).classify(&default_candidates());
        let inv = report.invariant.expect("invariant").len();
        let tasks = report.stats.num_tasks();
        assert!(inv > prev_inv, "invariant must grow: {prev_inv} -> {inv}");
        assert!(
            tasks > prev_tasks,
            "tasks must grow: {prev_tasks} -> {tasks}"
        );
        assert!(report.safe.contains(&Mnemonic::Mul));
        assert!(!report.safe.contains(&Mnemonic::Auipc));
        prev_inv = inv;
        prev_tasks = tasks;
    }
}

/// Positive examples satisfy the learned invariant (premise P-S of §3.1:
/// every H_i admits every example, hence so does the conjunction).
#[test]
fn invariant_admits_positive_examples() {
    use hh_suite::veloct::examples::generate_examples;
    let design = rocket_lite(16);
    let v = Veloct::with_config(&design, fast_config());
    let safe = alu_set();
    let report = v.learn(&safe);
    let inv = report.invariant.expect("invariant");
    // Regenerate the same examples (same seed as the default config).
    let (miter, _) = v.build_miter(&safe);
    let examples = generate_examples(&design, &miter, &safe, 1, fast_config().seed).unwrap();
    assert!(!examples.is_empty());
    for (i, e) in examples.iter().enumerate() {
        assert!(inv.holds_on(e), "example {i} violates the invariant");
    }
}

/// A deliberately unsafe proposal (mul on RocketLite with nonzero-only
/// examples) must fail in the *learning* phase, exercising backtracking.
#[test]
fn unsafe_proposal_fails_via_learning() {
    let design = rocket_lite(16);
    let v = Veloct::with_config(&design, fast_config());
    let mut set = alu_set();
    set.push(Mnemonic::Mul);
    let report = v.learn(&set);
    assert!(report.invariant.is_none());
    assert!(
        report.divergence.is_none(),
        "nonzero operands hide the fast path"
    );
    assert!(
        report.stats.counters.backtracks > 0,
        "failure must involve backtracking"
    );
}

/// The learner's input, pinned: FNV-1a over the sorted, deduplicated example
/// rows (each value's bits, little-endian) of RocketLite and SmallBoomLite,
/// at `pairs` 1 and 2, for the rich rotation, the `rds = [3]` limited regime
/// and the unmasked ablation. The values were recorded at the commit before
/// the streamed pair runner replaced the trace-materialising one, so a
/// generator change that alters what the learner sees is a visible diff here.
#[test]
fn example_set_digests_are_pinned() {
    use hh_suite::netlist::eval::StateValues;
    use hh_suite::veloct::examples::{generate_examples, generate_examples_custom};

    fn digest(examples: &[StateValues]) -> (usize, u64) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for e in examples {
            for (_, v) in e.iter() {
                for b in v.bits().to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        (examples.len(), h)
    }

    // Per design and `pairs`: rich, limited, unmasked-limited.
    let pinned: [(usize, u64); 12] = [
        (588, 0x1edb95f6cb7a5c43),
        (588, 0xd6f9fd6634b92bd5),
        (588, 0xd6f9fd6634b92bd5),
        (1143, 0x6cd35ee429e61c87),
        (1176, 0xd7847d5960aa4c41),
        (1176, 0xd7847d5960aa4c41),
        (1688, 0x7933fae256153c45),
        (1688, 0xcce15d464e025115),
        (1688, 0x14def087752d8950),
        (3310, 0xb3cce64e6acf1e5d),
        (3376, 0x30e198ca6056d8ce),
        (3376, 0xbb00a13435aee8f7),
    ];
    let mut got = Vec::new();
    for (design, safe) in [
        (rocket_lite(16), alu_set()),
        (boom_lite(BoomVariant::Small, 16), boom_set()),
    ] {
        let (miter, _) = Veloct::new(&design).build_miter(&safe);
        for pairs in [1, 2] {
            let rich = generate_examples(&design, &miter, &safe, pairs, 0xD1CE).unwrap();
            let limited =
                generate_examples_custom(&design, &miter, &safe, pairs, 0xD1CE, true, &[3])
                    .unwrap();
            let unmasked =
                generate_examples_custom(&design, &miter, &safe, pairs, 0xD1CE, false, &[3])
                    .unwrap();
            got.extend([digest(&rich), digest(&limited), digest(&unmasked)]);
        }
    }
    assert_eq!(got, pinned, "got {got:#x?}");
}
