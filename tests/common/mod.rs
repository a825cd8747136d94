//! Helpers the integration tests share.

// Each test binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use hh_suite::isa::{InstrClass, Mnemonic, ALL_MNEMONICS};
use hh_suite::netlist::eval::StateValues;
use hh_suite::netlist::miter::Miter;
use hh_suite::smt::Predicate;
use hh_suite::uarch::Design;
use hh_suite::veloct::examples::generate_examples;
use hh_suite::veloct::Veloct;

/// RocketLite's safe set (Table 2): every ALU instruction.
pub fn alu_set() -> Vec<Mnemonic> {
    ALL_MNEMONICS
        .iter()
        .copied()
        .filter(|m| m.class() == InstrClass::Alu)
        .collect()
}

/// The BoomLite safe set (Table 2): the ALU without `auipc`, plus the mul
/// family.
pub fn boom_set() -> Vec<Mnemonic> {
    ALL_MNEMONICS
        .iter()
        .copied()
        .filter(|m| {
            (m.class() == InstrClass::Alu && *m != Mnemonic::Auipc) || m.class() == InstrClass::Mul
        })
        .collect()
}

/// The constrained miter, one pair of examples per instruction (seed 42) and
/// the property of a design and safe set.
pub fn setup(design: &Design, safe: &[Mnemonic]) -> (Miter, Vec<StateValues>, Vec<Predicate>) {
    let veloct = Veloct::new(design);
    let (miter, _) = veloct.build_miter(safe);
    let examples = generate_examples(design, &miter, safe, 1, 42).expect("safe set");
    let props = veloct.property(&miter);
    (miter, examples, props)
}
