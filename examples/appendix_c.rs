//! The worked example of the paper's Appendix C: learning `Eq(Valid)` on a
//! simplified execute stage with an ADD unit and a zero-skip iterative MUL.
//!
//! ```text
//! cargo run --release --example appendix_c
//! ```
//!
//! Two runs are shown:
//!
//! 1. the ADD-only instruction alphabet, where H-Houdini finds the invariant
//!    (the "green" solution of Figure 1/8), and
//! 2. the alphabet with MUL admitted, where the recursion reaches
//!    `Eq(Op1)`/`Eq(Op2)`, positive examples refute them, and the learner
//!    backtracks until it correctly reports that no invariant exists.

use hh_suite::hhoudini::mine::CoiMiner;
use hh_suite::hhoudini::{EngineConfig, ParallelEngine};
use hh_suite::netlist::eval::{InputValues, StateValues};
use hh_suite::netlist::miter::Miter;
use hh_suite::netlist::Bv;
use hh_suite::sim::{product_states, simulate};
use hh_suite::smt::{Pattern, Predicate};
use hh_suite::uarch::execstage::{cmd, exec_stage, ExecStage, Opcode, CMD_INPUT};

/// Paired traces that run the program with different register-file secrets.
fn gather_examples(
    stage: &ExecStage,
    miter: &Miter,
    program: &[u64],
    left_regs: &[u64; 4],
    right_regs: &[u64; 4],
) -> Vec<StateValues> {
    let n = &stage.netlist;
    let inputs: Vec<InputValues> = program
        .iter()
        .chain(std::iter::repeat_n(&cmd(Opcode::Nop, 0, 0), 24))
        .map(|&w| {
            let mut iv = InputValues::zeros(n);
            iv.set_by_name(n, CMD_INPUT, Bv::new(6, w));
            iv
        })
        .collect();
    let mut left = StateValues::initial(n);
    let mut right = StateValues::initial(n);
    for i in 0..4 {
        left.set(stage.regs[i], Bv::new(16, left_regs[i]));
        right.set(stage.regs[i], Bv::new(16, right_regs[i]));
    }
    let lt = simulate(n, left, &inputs);
    let rt = simulate(n, right, &inputs);
    let mut ps = product_states(miter, &lt, &rt);
    ps.pop();
    ps
}

fn learn(stage: &ExecStage, allow_mul: bool) {
    let mut miter = Miter::build(&stage.netlist);
    // Σ: restrict the opcode input to the allowed alphabet.
    let cmd_in = miter.netlist().find_input(CMD_INPUT).unwrap();
    let opc = miter.netlist_mut().slice(cmd_in, 1, 0);
    let allowed: Vec<u64> = if allow_mul {
        vec![Opcode::Nop as u64, Opcode::Add as u64, Opcode::Mul as u64]
    } else {
        vec![Opcode::Nop as u64, Opcode::Add as u64]
    };
    let terms: Vec<_> = allowed
        .iter()
        .map(|&v| miter.netlist_mut().eq_const(opc, v))
        .collect();
    let constraint = miter.netlist_mut().or_all(&terms);
    miter.netlist_mut().add_constraint(constraint);

    // Positive examples: ADD (and MUL when admitted) with differing secrets.
    let mut examples = Vec::new();
    let adds = vec![
        cmd(Opcode::Add, 0, 1),
        cmd(Opcode::Nop, 0, 0),
        cmd(Opcode::Add, 2, 3),
    ];
    examples.extend(gather_examples(
        stage,
        &miter,
        &adds,
        &[3, 4, 5, 6],
        &[9, 8, 7, 6],
    ));
    if allow_mul {
        let muls = vec![cmd(Opcode::Mul, 0, 1)];
        // Non-zero operands on both sides: timing-equal, so these are
        // legitimate positive examples even though MUL is unsafe.
        examples.extend(gather_examples(
            stage,
            &miter,
            &muls,
            &[3, 4, 1, 1],
            &[9, 8, 1, 1],
        ));
    }

    // InSafeSet patterns over the 2-bit opcode alphabet.
    let patterns: Vec<Pattern> = allowed
        .iter()
        .map(|&v| Pattern {
            mask: 0x3,
            value: v,
        })
        .collect();
    let miner = CoiMiner::new(&miter, &examples, Some(patterns), vec![]);
    let mut engine = ParallelEngine::new(miter.netlist(), miner, EngineConfig::default(), 1);
    let prop = Predicate::eq(miter.left(stage.valid), miter.right(stage.valid));

    let label = if allow_mul { "ADD+MUL" } else { "ADD-only" };
    match engine.learn(&[prop]) {
        Some(inv) => {
            println!("[{label}] invariant found ({} predicates):", inv.len());
            for line in inv.describe(miter.netlist()).lines() {
                println!("    {line}");
            }
            let ok = inv.verify_monolithic(miter.netlist());
            println!(
                "    monolithic re-verification: {} | tasks {} backtracks {}",
                if ok { "INDUCTIVE" } else { "BROKEN" },
                engine.stats().num_tasks(),
                engine.stats().backtracks
            );
            assert!(ok);
        }
        None => {
            println!(
                "[{label}] no invariant exists (tasks {}, backtracks {}) — \
                 the zero-skip multiplier leaks operand timing",
                engine.stats().num_tasks(),
                engine.stats().backtracks
            );
        }
    }
    println!();
}

fn main() {
    let stage = exec_stage(16);
    println!(
        "execute stage: {} state bits, {} state elements\n",
        stage.netlist.state_bits(),
        stage.netlist.num_states()
    );
    learn(&stage, false);
    learn(&stage, true);
}
