//! # hh-isa — RV32 instruction subset: encodings, decoder, safe-set patterns
//!
//! The safe-instruction-set-synthesis problem is defined over a real ISA; the
//! paper generates `InSafeSet` mask/match bit patterns "from the RISC-V
//! specification" (§5.1.1). This crate implements a faithful RV32I+M subset:
//! genuine opcodes, funct3/funct7 fields and immediate layouts, an
//! encoder/decoder pair, and per-instruction mask/match pattern generation.
//!
//! The processor models in `hh-uarch` decode these exact bit patterns, so
//! `InSafeSet` predicates generated here constrain their pipeline registers
//! correctly.
//!
//! ```
//! use hh_isa::{Instruction, Mnemonic};
//! let i = Instruction::rtype(Mnemonic::Add, 3, 1, 2); // add x3, x1, x2
//! let word = i.encode();
//! assert_eq!(Instruction::decode(word), Some(i));
//! assert!(Mnemonic::Add.pattern().matches(word));
//! assert!(!Mnemonic::Sub.pattern().matches(word));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asm;

use std::fmt;

/// Instruction mnemonics of the implemented RV32 subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Mnemonic {
    // RV32I register-register ALU.
    Add,
    Sub,
    Xor,
    Or,
    And,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    // RV32I register-immediate ALU.
    Addi,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    Slti,
    Sltiu,
    // Upper-immediate.
    Lui,
    Auipc,
    // M extension.
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    // Memory.
    Lw,
    Sw,
    // Control flow.
    Beq,
    Bne,
    Jal,
}

/// All implemented mnemonics, in canonical order.
pub const ALL_MNEMONICS: &[Mnemonic] = &[
    Mnemonic::Add,
    Mnemonic::Sub,
    Mnemonic::Xor,
    Mnemonic::Or,
    Mnemonic::And,
    Mnemonic::Sll,
    Mnemonic::Srl,
    Mnemonic::Sra,
    Mnemonic::Slt,
    Mnemonic::Sltu,
    Mnemonic::Addi,
    Mnemonic::Xori,
    Mnemonic::Ori,
    Mnemonic::Andi,
    Mnemonic::Slli,
    Mnemonic::Srli,
    Mnemonic::Srai,
    Mnemonic::Slti,
    Mnemonic::Sltiu,
    Mnemonic::Lui,
    Mnemonic::Auipc,
    Mnemonic::Mul,
    Mnemonic::Mulh,
    Mnemonic::Mulhsu,
    Mnemonic::Mulhu,
    Mnemonic::Lw,
    Mnemonic::Sw,
    Mnemonic::Beq,
    Mnemonic::Bne,
    Mnemonic::Jal,
];

/// Instruction format classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Format {
    R,
    I,
    U,
    S,
    B,
    J,
}

/// Broad functional classes, used when seeding safe-set candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Integer ALU (R/I/U types).
    Alu,
    /// Multiplier.
    Mul,
    /// Loads/stores.
    Memory,
    /// Branches and jumps.
    Control,
}

const OP: u32 = 0x33;
const OP_IMM: u32 = 0x13;
const LUI: u32 = 0x37;
const AUIPC: u32 = 0x17;
const LOAD: u32 = 0x03;
const STORE: u32 = 0x23;
const BRANCH: u32 = 0x63;
const JAL: u32 = 0x6f;

impl Mnemonic {
    /// Base opcode (bits 6:0).
    pub fn opcode(self) -> u32 {
        use Mnemonic::*;
        match self {
            Add | Sub | Xor | Or | And | Sll | Srl | Sra | Slt | Sltu | Mul | Mulh | Mulhsu
            | Mulhu => OP,
            Addi | Xori | Ori | Andi | Slli | Srli | Srai | Slti | Sltiu => OP_IMM,
            Lui => LUI,
            Auipc => AUIPC,
            Lw => LOAD,
            Sw => STORE,
            Beq | Bne => BRANCH,
            Jal => JAL,
        }
    }

    /// funct3 field (bits 14:12); zero where unused.
    pub fn funct3(self) -> u32 {
        use Mnemonic::*;
        match self {
            Add | Sub | Addi | Mul | Beq | Jal | Lui | Auipc => 0b000,
            Sll | Slli | Mulh | Bne => 0b001,
            Slt | Slti | Mulhsu | Lw | Sw => 0b010,
            Sltu | Sltiu | Mulhu => 0b011,
            Xor | Xori => 0b100,
            Srl | Sra | Srli | Srai => 0b101,
            Or | Ori => 0b110,
            And | Andi => 0b111,
        }
    }

    /// funct7 field (bits 31:25) for R-type and shift-immediates.
    pub fn funct7(self) -> u32 {
        use Mnemonic::*;
        match self {
            Sub | Sra | Srai => 0b0100000,
            Mul | Mulh | Mulhsu | Mulhu => 0b0000001,
            _ => 0,
        }
    }

    /// The encoding format.
    pub fn format(self) -> Format {
        use Mnemonic::*;
        match self {
            Add | Sub | Xor | Or | And | Sll | Srl | Sra | Slt | Sltu | Mul | Mulh | Mulhsu
            | Mulhu => Format::R,
            Addi | Xori | Ori | Andi | Slli | Srli | Srai | Slti | Sltiu | Lw => Format::I,
            Lui | Auipc => Format::U,
            Sw => Format::S,
            Beq | Bne => Format::B,
            Jal => Format::J,
        }
    }

    /// Functional class.
    pub fn class(self) -> InstrClass {
        use Mnemonic::*;
        match self {
            Mul | Mulh | Mulhsu | Mulhu => InstrClass::Mul,
            Lw | Sw => InstrClass::Memory,
            Beq | Bne | Jal => InstrClass::Control,
            _ => InstrClass::Alu,
        }
    }

    /// The mask/match pattern identifying this instruction: `word & mask ==
    /// matches` iff the word is an encoding of this mnemonic (any operands).
    pub fn pattern(self) -> MaskMatch {
        let fmt = self.format();
        let mask = match fmt {
            Format::R => 0xfe00_707f,
            // Shift-immediates fix imm[11:5] like funct7.
            Format::I => match self {
                Mnemonic::Slli | Mnemonic::Srli | Mnemonic::Srai => 0xfe00_707f,
                _ => 0x0000_707f,
            },
            Format::U | Format::J => 0x0000_007f,
            Format::S | Format::B => 0x0000_707f,
        };
        let matches = self.opcode() | (self.funct3() << 12) | (self.funct7() << 25);
        MaskMatch { mask, matches }
    }

    /// Lower-case assembly name.
    pub fn name(self) -> &'static str {
        use Mnemonic::*;
        match self {
            Add => "add",
            Sub => "sub",
            Xor => "xor",
            Or => "or",
            And => "and",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            Slt => "slt",
            Sltu => "sltu",
            Addi => "addi",
            Xori => "xori",
            Ori => "ori",
            Andi => "andi",
            Slli => "slli",
            Srli => "srli",
            Srai => "srai",
            Slti => "slti",
            Sltiu => "sltiu",
            Lui => "lui",
            Auipc => "auipc",
            Mul => "mul",
            Mulh => "mulh",
            Mulhsu => "mulhsu",
            Mulhu => "mulhu",
            Lw => "lw",
            Sw => "sw",
            Beq => "beq",
            Bne => "bne",
            Jal => "jal",
        }
    }

    /// Whether this instruction reads rs2 as a register operand.
    pub fn uses_rs2(self) -> bool {
        matches!(self.format(), Format::R | Format::S | Format::B)
    }

    /// Whether this instruction reads rs1.
    pub fn uses_rs1(self) -> bool {
        !matches!(self.format(), Format::U | Format::J)
    }
}

impl fmt::Display for Mnemonic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A mask/match pair over 32-bit instruction words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MaskMatch {
    /// Participating bits.
    pub mask: u32,
    /// Required values of the masked bits.
    pub matches: u32,
}

impl MaskMatch {
    /// Whether the word matches.
    pub fn matches(&self, word: u32) -> bool {
        word & self.mask == self.matches
    }
}

/// Generates the `InSafeSet` patterns for a proposed safe set: one mask/match
/// pair per instruction, automatically derived from the encoding tables
/// (paper §5.1.1: "these bit patterns are automatically generated from the
/// RISC-V specification").
pub fn safe_set_patterns(safe: &[Mnemonic]) -> Vec<MaskMatch> {
    safe.iter().map(|m| m.pattern()).collect()
}

/// A concrete instruction with operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// The mnemonic.
    pub mnemonic: Mnemonic,
    /// Destination register (0–31; ignored for S/B formats).
    pub rd: u8,
    /// First source register.
    pub rs1: u8,
    /// Second source register (R/S/B formats).
    pub rs2: u8,
    /// Immediate (sign-extended where the format requires).
    pub imm: i32,
}

impl Instruction {
    /// Builds an R-type instruction.
    pub fn rtype(mnemonic: Mnemonic, rd: u8, rs1: u8, rs2: u8) -> Instruction {
        assert_eq!(mnemonic.format(), Format::R, "{mnemonic} is not R-type");
        Instruction {
            mnemonic,
            rd,
            rs1,
            rs2,
            imm: 0,
        }
    }

    /// Builds an I-type instruction.
    pub fn itype(mnemonic: Mnemonic, rd: u8, rs1: u8, imm: i32) -> Instruction {
        assert_eq!(mnemonic.format(), Format::I, "{mnemonic} is not I-type");
        Instruction {
            mnemonic,
            rd,
            rs1,
            rs2: 0,
            imm,
        }
    }

    /// Builds a U-type instruction (imm is the raw upper-20 value).
    pub fn utype(mnemonic: Mnemonic, rd: u8, imm: i32) -> Instruction {
        assert_eq!(mnemonic.format(), Format::U, "{mnemonic} is not U-type");
        Instruction {
            mnemonic,
            rd,
            rs1: 0,
            rs2: 0,
            imm,
        }
    }

    /// Builds an S-type (store) instruction.
    pub fn stype(mnemonic: Mnemonic, rs1: u8, rs2: u8, imm: i32) -> Instruction {
        assert_eq!(mnemonic.format(), Format::S, "{mnemonic} is not S-type");
        Instruction {
            mnemonic,
            rd: 0,
            rs1,
            rs2,
            imm,
        }
    }

    /// Builds a B-type (branch) instruction.
    pub fn btype(mnemonic: Mnemonic, rs1: u8, rs2: u8, imm: i32) -> Instruction {
        assert_eq!(mnemonic.format(), Format::B, "{mnemonic} is not B-type");
        Instruction {
            mnemonic,
            rd: 0,
            rs1,
            rs2,
            imm,
        }
    }

    /// Builds a J-type (jump) instruction.
    pub fn jtype(mnemonic: Mnemonic, rd: u8, imm: i32) -> Instruction {
        assert_eq!(mnemonic.format(), Format::J, "{mnemonic} is not J-type");
        Instruction {
            mnemonic,
            rd,
            rs1: 0,
            rs2: 0,
            imm,
        }
    }

    /// The canonical NOP: `addi x0, x0, 0`.
    pub fn nop() -> Instruction {
        Instruction::itype(Mnemonic::Addi, 0, 0, 0)
    }

    /// Encodes to a 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics if a register field exceeds 31 or an immediate does not fit
    /// its field.
    pub fn encode(&self) -> u32 {
        let m = self.mnemonic;
        let rd = (self.rd as u32) & 0x1f;
        let rs1 = (self.rs1 as u32) & 0x1f;
        let rs2 = (self.rs2 as u32) & 0x1f;
        assert!(
            self.rd < 32 && self.rs1 < 32 && self.rs2 < 32,
            "register out of range"
        );
        let base = m.opcode() | (m.funct3() << 12);
        match m.format() {
            Format::R => base | (rd << 7) | (rs1 << 15) | (rs2 << 20) | (m.funct7() << 25),
            Format::I => {
                let imm = if matches!(m, Mnemonic::Slli | Mnemonic::Srli | Mnemonic::Srai) {
                    assert!((0..32).contains(&self.imm), "shift amount out of range");
                    (self.imm as u32) | (m.funct7() << 5)
                } else {
                    assert!((-2048..2048).contains(&self.imm), "I imm out of range");
                    (self.imm as u32) & 0xfff
                };
                base | (rd << 7) | (rs1 << 15) | (imm << 20)
            }
            Format::U => {
                assert!((0..(1 << 20)).contains(&self.imm), "U imm out of range");
                base | (rd << 7) | ((self.imm as u32) << 12)
            }
            Format::S => {
                assert!((-2048..2048).contains(&self.imm), "S imm out of range");
                let imm = (self.imm as u32) & 0xfff;
                base | ((imm & 0x1f) << 7) | (rs1 << 15) | (rs2 << 20) | ((imm >> 5) << 25)
            }
            Format::B => {
                assert!(
                    (-4096..4096).contains(&self.imm) && self.imm % 2 == 0,
                    "B imm out of range"
                );
                let imm = (self.imm as u32) & 0x1fff;
                base | (((imm >> 11) & 1) << 7)
                    | (((imm >> 1) & 0xf) << 8)
                    | (rs1 << 15)
                    | (rs2 << 20)
                    | (((imm >> 5) & 0x3f) << 25)
                    | (((imm >> 12) & 1) << 31)
            }
            Format::J => {
                assert!(
                    (-(1 << 20)..(1 << 20)).contains(&self.imm) && self.imm % 2 == 0,
                    "J imm out of range"
                );
                let imm = (self.imm as u32) & 0x1f_ffff;
                base | (rd << 7)
                    | (((imm >> 12) & 0xff) << 12)
                    | (((imm >> 11) & 1) << 20)
                    | (((imm >> 1) & 0x3ff) << 21)
                    | (((imm >> 20) & 1) << 31)
            }
        }
    }

    /// Decodes a 32-bit word; `None` if it is not in the implemented subset.
    pub fn decode(word: u32) -> Option<Instruction> {
        let mnemonic = *ALL_MNEMONICS.iter().find(|m| m.pattern().matches(word))?;
        let rd = ((word >> 7) & 0x1f) as u8;
        let rs1 = ((word >> 15) & 0x1f) as u8;
        let rs2 = ((word >> 20) & 0x1f) as u8;
        let imm = match mnemonic.format() {
            Format::R => 0,
            Format::I => {
                if matches!(mnemonic, Mnemonic::Slli | Mnemonic::Srli | Mnemonic::Srai) {
                    ((word >> 20) & 0x1f) as i32
                } else {
                    (word as i32) >> 20
                }
            }
            Format::U => ((word >> 12) & 0xf_ffff) as i32,
            Format::S => {
                let lo = (word >> 7) & 0x1f;
                let hi = (word >> 25) & 0x7f;
                ((((hi << 5) | lo) << 20) as i32) >> 20
            }
            Format::B => {
                let imm = (((word >> 31) & 1) << 12)
                    | (((word >> 7) & 1) << 11)
                    | (((word >> 25) & 0x3f) << 5)
                    | (((word >> 8) & 0xf) << 1);
                ((imm << 19) as i32) >> 19
            }
            Format::J => {
                let imm = (((word >> 31) & 1) << 20)
                    | (((word >> 12) & 0xff) << 12)
                    | (((word >> 20) & 1) << 11)
                    | (((word >> 21) & 0x3ff) << 1);
                ((imm << 11) as i32) >> 11
            }
        };
        Some(Instruction {
            mnemonic,
            rd: if matches!(mnemonic.format(), Format::S | Format::B) {
                0
            } else {
                rd
            },
            rs1: if mnemonic.uses_rs1() { rs1 } else { 0 },
            rs2: if mnemonic.uses_rs2() { rs2 } else { 0 },
            imm,
        })
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mnemonic.format() {
            Format::R => write!(
                f,
                "{} x{}, x{}, x{}",
                self.mnemonic, self.rd, self.rs1, self.rs2
            ),
            Format::I => write!(
                f,
                "{} x{}, x{}, {}",
                self.mnemonic, self.rd, self.rs1, self.imm
            ),
            Format::U => write!(f, "{} x{}, {:#x}", self.mnemonic, self.rd, self.imm),
            Format::S => write!(
                f,
                "{} x{}, {}(x{})",
                self.mnemonic, self.rs2, self.imm, self.rs1
            ),
            Format::B => write!(
                f,
                "{} x{}, x{}, {}",
                self.mnemonic, self.rs1, self.rs2, self.imm
            ),
            Format::J => write!(f, "{} x{}, {}", self.mnemonic, self.rd, self.imm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_encodings() {
        // Cross-checked against the RISC-V spec.
        assert_eq!(
            Instruction::rtype(Mnemonic::Add, 3, 1, 2).encode(),
            0x0020_81b3
        );
        assert_eq!(
            Instruction::rtype(Mnemonic::Sub, 3, 1, 2).encode(),
            0x4020_81b3
        );
        assert_eq!(
            Instruction::itype(Mnemonic::Addi, 1, 0, 5).encode(),
            0x0050_0093
        );
        assert_eq!(Instruction::nop().encode(), 0x0000_0013);
        assert_eq!(
            Instruction::rtype(Mnemonic::Mul, 5, 6, 7).encode(),
            0x0273_02b3
        );
        assert_eq!(
            Instruction::utype(Mnemonic::Lui, 1, 0x12345).encode(),
            0x1234_50b7
        );
    }

    #[test]
    fn roundtrip_all_mnemonics() {
        for &m in ALL_MNEMONICS {
            let i = match m.format() {
                Format::R => Instruction::rtype(m, 3, 1, 2),
                Format::I => {
                    let imm = if matches!(m, Mnemonic::Slli | Mnemonic::Srli | Mnemonic::Srai) {
                        9
                    } else {
                        -7
                    };
                    Instruction::itype(m, 3, 1, imm)
                }
                Format::U => Instruction::utype(m, 3, 0x2bcde),
                Format::S => Instruction::stype(m, 1, 2, -8),
                Format::B => Instruction::btype(m, 1, 2, -16),
                Format::J => Instruction::jtype(m, 3, 2048),
            };
            let word = i.encode();
            let back = Instruction::decode(word).unwrap_or_else(|| panic!("decode failed for {m}"));
            assert_eq!(back, i, "roundtrip failed for {m} (word {word:#010x})");
        }
    }

    #[test]
    fn patterns_are_disjoint() {
        // No word can match two different mnemonics' patterns.
        for &a in ALL_MNEMONICS {
            let i = match a.format() {
                Format::R => Instruction::rtype(a, 1, 2, 3),
                Format::I => Instruction::itype(a, 1, 2, 3),
                Format::U => Instruction::utype(a, 1, 3),
                Format::S => Instruction::stype(a, 1, 2, 3),
                Format::B => Instruction::btype(a, 1, 2, 4),
                Format::J => Instruction::jtype(a, 1, 4),
            };
            let word = i.encode();
            let matching: Vec<Mnemonic> = ALL_MNEMONICS
                .iter()
                .copied()
                .filter(|m| m.pattern().matches(word))
                .collect();
            assert_eq!(matching, vec![a], "pattern overlap for {a}");
        }
    }

    #[test]
    fn nop_is_in_alu_safe_patterns() {
        let patterns = safe_set_patterns(&[Mnemonic::Addi]);
        assert!(patterns[0].matches(Instruction::nop().encode()));
    }

    #[test]
    fn classes() {
        assert_eq!(Mnemonic::Mulhu.class(), InstrClass::Mul);
        assert_eq!(Mnemonic::Lw.class(), InstrClass::Memory);
        assert_eq!(Mnemonic::Jal.class(), InstrClass::Control);
        assert_eq!(Mnemonic::Auipc.class(), InstrClass::Alu);
    }

    #[test]
    fn negative_immediates() {
        let i = Instruction::itype(Mnemonic::Addi, 1, 2, -1);
        let d = Instruction::decode(i.encode()).unwrap();
        assert_eq!(d.imm, -1);
        let s = Instruction::stype(Mnemonic::Sw, 2, 3, -4);
        assert_eq!(Instruction::decode(s.encode()).unwrap().imm, -4);
        let b = Instruction::btype(Mnemonic::Beq, 2, 3, -4096);
        assert_eq!(Instruction::decode(b.encode()).unwrap().imm, -4096);
        let j = Instruction::jtype(Mnemonic::Jal, 1, -2);
        assert_eq!(Instruction::decode(j.encode()).unwrap().imm, -2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Instruction::rtype(Mnemonic::Add, 3, 1, 2).to_string(),
            "add x3, x1, x2"
        );
        assert_eq!(
            Instruction::stype(Mnemonic::Sw, 1, 2, 8).to_string(),
            "sw x2, 8(x1)"
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Instruction::decode(0xffff_ffff), None);
        assert_eq!(Instruction::decode(0), None);
    }
}
