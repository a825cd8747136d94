//! Instruction decode logic built from the real RV32 encodings.
//!
//! Cores decode the 32-bit instruction word with the same mask/match
//! patterns that `hh-isa` generates for `InSafeSet` predicates, so a learned
//! `InSafeSet` constraint on a pipeline register lines up exactly with the
//! hardware's own decode.

use hh_isa::{MaskMatch, Mnemonic, ALL_MNEMONICS};
use hh_netlist::miter::Miter;
use hh_netlist::{Netlist, NodeId};
use std::collections::HashMap;

/// Decoded signals for one 32-bit instruction word.
#[derive(Debug, Clone)]
pub struct Decode {
    /// Per-mnemonic match bits.
    pub matches: HashMap<Mnemonic, NodeId>,
    /// Any implemented instruction matched.
    pub known: NodeId,
    /// Functional-class bits.
    pub is_alu: NodeId,
    /// `mul`/`mulh`/`mulhsu`/`mulhu`.
    pub is_mul: NodeId,
    /// `lw`.
    pub is_load: NodeId,
    /// `sw`.
    pub is_store: NodeId,
    /// `beq`/`bne`.
    pub is_branch: NodeId,
    /// `jal`.
    pub is_jal: NodeId,
    /// `auipc` (class ALU, but BOOM-style cores route it to the jump unit).
    pub is_auipc: NodeId,
    /// Destination register index (low bits of rd field).
    pub rd: NodeId,
    /// First source register index.
    pub rs1: NodeId,
    /// Second source register index.
    pub rs2: NodeId,
    /// Whether the instruction writes a register (has an rd).
    pub writes_rd: NodeId,
    /// Whether the instruction reads rs1 as a register operand.
    pub uses_rs1: NodeId,
    /// Whether the instruction reads rs2 as a register operand.
    pub uses_rs2: NodeId,
    /// I-type immediate, sign-extended to XLEN.
    pub imm_i: NodeId,
    /// S-type immediate, sign-extended to XLEN.
    pub imm_s: NodeId,
    /// U-type immediate (`imm20 << 12`), truncated/extended to XLEN.
    pub imm_u: NodeId,
}

/// Builds a 1-bit signal `(word & mask) == match` for an encoding pattern.
pub fn matches_pattern(n: &mut Netlist, word: NodeId, p: MaskMatch) -> NodeId {
    let mask = n.c(32, p.mask as u64);
    let want = n.c(32, p.matches as u64);
    let masked = n.and(word, mask);
    n.eq(masked, want)
}

/// Builds the safe-set-constrained miter of a design: the product circuit
/// with the instruction input restricted to words matching one of the given
/// mask/match `patterns` (VeloCT's alphabet Σ).
///
/// This is the *single* construction both the learner (`veloct`) and the
/// certificate checker (`hh-proof`) use; the session CNFs a certificate's
/// proofs refute are only reproducible because both sides build the
/// identical miter from the identical pattern list.
pub fn constrained_miter(design: &crate::Design, patterns: &[MaskMatch]) -> Miter {
    let mut miter = Miter::build(&design.netlist);
    let instr = miter
        .netlist()
        .find_input(&design.instr_input)
        .expect("design has an instruction input");
    let terms: Vec<NodeId> = patterns
        .iter()
        .map(|&mm| matches_pattern(miter.netlist_mut(), instr, mm))
        .collect();
    let constraint = miter.netlist_mut().or_all(&terms);
    miter.netlist_mut().add_constraint(constraint);
    miter
}

/// The number of register-index bits used for `nregs` registers.
pub fn reg_bits(nregs: usize) -> u32 {
    assert!(
        nregs.is_power_of_two() && nregs >= 2,
        "nregs must be a power of two"
    );
    nregs.trailing_zeros()
}

/// Decodes `instr` (a 32-bit node) into class/operand signals.
///
/// # Panics
///
/// Panics if `instr` is not 32 bits wide or `xlen` is not in `8..=32`.
pub fn decode(n: &mut Netlist, instr: NodeId, xlen: u32, nregs: usize) -> Decode {
    assert_eq!(n.width(instr), 32, "instruction word must be 32 bits");
    assert!((8..=32).contains(&xlen), "xlen must be in 8..=32");
    let rb = reg_bits(nregs);

    let mut matches = HashMap::new();
    for &m in ALL_MNEMONICS {
        let bit = matches_pattern(n, instr, m.pattern());
        matches.insert(m, bit);
    }
    let class_or =
        |n: &mut Netlist, matches: &HashMap<Mnemonic, NodeId>, f: &dyn Fn(Mnemonic) -> bool| {
            let bits: Vec<NodeId> = ALL_MNEMONICS
                .iter()
                .filter(|&&m| f(m))
                .map(|m| matches[m])
                .collect();
            n.or_all(&bits)
        };

    let known = class_or(n, &matches, &|_| true);
    let is_alu = class_or(n, &matches, &|m| m.class() == hh_isa::InstrClass::Alu);
    let is_mul = class_or(n, &matches, &|m| m.class() == hh_isa::InstrClass::Mul);
    let is_load = matches[&Mnemonic::Lw];
    let is_store = matches[&Mnemonic::Sw];
    let is_branch = {
        let beq = matches[&Mnemonic::Beq];
        let bne = matches[&Mnemonic::Bne];
        n.or(beq, bne)
    };
    let is_jal = matches[&Mnemonic::Jal];
    let is_auipc = matches[&Mnemonic::Auipc];

    let rd = n.slice(instr, 7 + rb - 1, 7);
    let rs1 = n.slice(instr, 15 + rb - 1, 15);
    let rs2 = n.slice(instr, 20 + rb - 1, 20);

    // writes_rd: everything except stores and branches.
    let no_rd = {
        let s = n.or(is_store, is_branch);
        n.not(s)
    };
    let writes_rd = n.and(known, no_rd);
    let uses_rs1 = class_or(n, &matches, &|m| m.uses_rs1());
    let uses_rs2 = class_or(n, &matches, &|m| m.uses_rs2());

    let imm12 = n.slice(instr, 31, 20);
    let imm_i = n.sext(imm12, xlen);
    let imm_s = {
        let hi = n.slice(instr, 31, 25);
        let lo = n.slice(instr, 11, 7);
        let cat = n.concat(hi, lo);
        n.sext(cat, xlen)
    };
    let imm_u = {
        let imm20 = n.slice(instr, 31, 12);
        let zeros = n.c(12, 0);
        let shifted = n.concat(imm20, zeros); // 32 bits
        if xlen < 32 {
            n.slice(shifted, xlen - 1, 0)
        } else {
            shifted
        }
    };

    Decode {
        matches,
        known,
        is_alu,
        is_mul,
        is_load,
        is_store,
        is_branch,
        is_jal,
        is_auipc,
        rd,
        rs1,
        rs2,
        writes_rd,
        uses_rs1,
        uses_rs2,
        imm_i,
        imm_s,
        imm_u,
    }
}

/// Builds a register-file read port: a mux tree over `regs` selected by
/// `index` (width must be `log2(regs.len())`).
pub fn rf_read(n: &mut Netlist, regs: &[NodeId], index: NodeId) -> NodeId {
    assert!(regs.len().is_power_of_two());
    assert_eq!(
        n.width(index) as usize,
        regs.len().trailing_zeros() as usize
    );
    let mut cases = Vec::new();
    for (i, &r) in regs.iter().enumerate().take(regs.len() - 1) {
        let sel = n.eq_const(index, i as u64);
        cases.push((sel, r));
    }
    // The last register is the fall-through case: if no earlier index
    // matched, the index must be regs.len() - 1.
    let default = regs[regs.len() - 1];
    n.select(&cases, default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_isa::asm;
    use hh_netlist::eval::{eval_all, InputValues, StateValues};
    use hh_netlist::Bv;

    fn eval_decode(word: u32, f: impl Fn(&Decode) -> NodeId) -> u64 {
        let mut n = Netlist::new("t");
        let instr = n.input("instr", 32);
        let d = decode(&mut n, instr, 16, 8);
        let node = f(&d);
        // netlist needs at least the nodes; no states required.
        let mut iv = InputValues::zeros(&n);
        iv.set_by_name(&n, "instr", Bv::new(32, word as u64));
        let vals = eval_all(&n, &StateValues::from_vec(vec![]), &iv);
        vals[node.index()].bits()
    }

    #[test]
    fn classes_decode_correctly() {
        let add = asm::add(3, 1, 2).encode();
        assert_eq!(eval_decode(add, |d| d.is_alu), 1);
        assert_eq!(eval_decode(add, |d| d.is_mul), 0);
        let mul = asm::mul(3, 1, 2).encode();
        assert_eq!(eval_decode(mul, |d| d.is_mul), 1);
        assert_eq!(eval_decode(mul, |d| d.is_alu), 0);
        let lw = asm::lw(3, 1, 4).encode();
        assert_eq!(eval_decode(lw, |d| d.is_load), 1);
        let sw = asm::sw(1, 2, 4).encode();
        assert_eq!(eval_decode(sw, |d| d.is_store), 1);
        assert_eq!(eval_decode(sw, |d| d.writes_rd), 0);
        let beq = asm::beq(1, 2, 8).encode();
        assert_eq!(eval_decode(beq, |d| d.is_branch), 1);
        let auipc = asm::auipc(5, 3).encode();
        assert_eq!(eval_decode(auipc, |d| d.is_auipc), 1);
        assert_eq!(eval_decode(auipc, |d| d.is_alu), 1);
    }

    #[test]
    fn garbage_is_unknown() {
        assert_eq!(eval_decode(0xffff_ffff, |d| d.known), 0);
        assert_eq!(eval_decode(0, |d| d.known), 0);
        let add = asm::add(3, 1, 2).encode();
        assert_eq!(eval_decode(add, |d| d.known), 1);
    }

    #[test]
    fn fields_decode_correctly() {
        let i = asm::add(3, 1, 2).encode();
        assert_eq!(eval_decode(i, |d| d.rd), 3);
        assert_eq!(eval_decode(i, |d| d.rs1), 1);
        assert_eq!(eval_decode(i, |d| d.rs2), 2);
        let neg = asm::addi(1, 2, -5).encode();
        assert_eq!(eval_decode(neg, |d| d.imm_i), 0xfffb); // -5 in 16 bits
        let st = asm::sw(1, 2, -4).encode();
        assert_eq!(eval_decode(st, |d| d.imm_s), 0xfffc);
        let lui = asm::lui(1, 0x5).encode();
        assert_eq!(eval_decode(lui, |d| d.imm_u), 0x5000);
    }

    #[test]
    fn rf_read_selects() {
        let mut n = Netlist::new("t");
        let regs: Vec<NodeId> = (0..4).map(|i| n.c(8, 10 + i as u64)).collect();
        let idx = n.input("idx", 2);
        let out = rf_read(&mut n, &regs, idx);
        for i in 0..4u64 {
            let mut iv = InputValues::zeros(&n);
            iv.set_by_name(&n, "idx", Bv::new(2, i));
            let vals = eval_all(&n, &StateValues::from_vec(vec![]), &iv);
            assert_eq!(vals[out.index()].bits(), 10 + i);
        }
    }
}
