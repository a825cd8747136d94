//! The paper's input format: hardware in btor2 (§6.1, yosys-emitted).
//!
//! ```text
//! cargo run --release --example btor2_flow
//! ```
//!
//! Exports RocketLite to btor2 text, re-parses it, checks the reconstructed
//! transition system is cycle-equivalent to the original, and runs invariant
//! learning on the *re-parsed* design — demonstrating that the whole
//! pipeline works from the external format, as the paper's tool does.

use hh_suite::hhoudini::mine::CoiMiner;
use hh_suite::hhoudini::{EngineConfig, ParallelEngine};
use hh_suite::isa::asm;
use hh_suite::isa::{InstrClass, Mnemonic, ALL_MNEMONICS};
use hh_suite::netlist::btor2::{parse_btor2, to_btor2};
use hh_suite::netlist::eval::{step, InputValues, StateValues};
use hh_suite::netlist::miter::Miter;
use hh_suite::netlist::Bv;
use hh_suite::smt::Predicate;
use hh_suite::uarch::decode::matches_pattern;
use hh_suite::uarch::rocketlite::rocket_lite;
use hh_suite::veloct::{examples::generate_examples, instruction_patterns};

fn main() {
    let mut design = rocket_lite(16);
    let text = to_btor2(&design.netlist);
    println!(
        "exported RocketLite to btor2: {} lines, {} bytes",
        text.lines().count(),
        text.len()
    );

    let reparsed = parse_btor2(&text).expect("round-trip parse");
    assert_eq!(reparsed.num_states(), design.netlist.num_states());

    // Cycle-equivalence check over a short program.
    let prog = [
        asm::addi(1, 0, 7).encode(),
        asm::add(3, 1, 1).encode(),
        0,
        0,
        0,
        0,
    ];
    let mut s_a = StateValues::initial(&design.netlist);
    let mut s_b = StateValues::initial(&reparsed);
    for w in prog {
        let mut iv_a = InputValues::zeros(&design.netlist);
        iv_a.set_by_name(&design.netlist, "instr", Bv::new(32, w as u64));
        let mut iv_b = InputValues::zeros(&reparsed);
        iv_b.set_by_name(&reparsed, "instr", Bv::new(32, w as u64));
        s_a = step(&design.netlist, &s_a, &iv_a);
        s_b = step(&reparsed, &s_b, &iv_b);
    }
    for sid in design.netlist.state_ids() {
        let name = design.netlist.state_name(sid).to_string();
        let other = reparsed.find_state(&name).expect("state preserved");
        assert_eq!(s_a.get(sid), s_b.get(other), "state {name} diverged");
    }
    println!("cycle-equivalence after round-trip: OK");

    // Learn on the re-parsed design. The Design metadata (observables,
    // secret registers, instruction input) carries over by name.
    design.netlist = reparsed;
    let safe: Vec<Mnemonic> = ALL_MNEMONICS
        .iter()
        .copied()
        .filter(|m| m.class() == InstrClass::Alu)
        .collect();
    let mut miter = Miter::build(&design.netlist);
    let patterns = instruction_patterns(&safe);
    let instr = miter.netlist().find_input("instr").unwrap();
    let terms: Vec<_> = patterns
        .iter()
        .map(|p| {
            let mm = hh_suite::isa::MaskMatch {
                mask: p.mask as u32,
                matches: p.value as u32,
            };
            matches_pattern(miter.netlist_mut(), instr, mm)
        })
        .collect();
    let c = miter.netlist_mut().or_all(&terms);
    miter.netlist_mut().add_constraint(c);

    let examples = generate_examples(&design, &miter, &safe, 1, 1).expect("safe set");
    let miner = CoiMiner::new(&miter, &examples, Some(patterns), vec![]);
    let mut engine = ParallelEngine::new(miter.netlist(), miner, EngineConfig::default(), 1);
    let props: Vec<Predicate> = design
        .observable
        .iter()
        .map(|&o| Predicate::eq(miter.left(o), miter.right(o)))
        .collect();
    let inv = engine.learn(&props).expect("invariant on re-parsed design");
    assert!(inv.verify_monolithic(miter.netlist()));
    println!(
        "learned + monolithically verified invariant on the re-parsed design: {} predicates",
        inv.len()
    );
}
