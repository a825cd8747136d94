//! The fingerprint certificates give a solver's formula.
//!
//! [`fingerprint`] walks the formula a proof stream refutes
//! ([`Solver::visit_formula_clauses`], the clause list a DIMACS file would
//! hold) in place and hashes its literal codes ([`CnfShape`]); certificates
//! identify each obligation's formula by it.

use crate::lit::Lit;
use crate::solver::Solver;

/// 64-bit FNV-1a, the hash certificates fingerprint formulas with.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A formula's size and fingerprint: what a certificate records of the
/// formula a proof refutes, and what a checker compares its re-derived
/// formula against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CnfShape {
    /// Variables of the solver holding the formula.
    pub num_vars: usize,
    /// Clauses of the formula, as [`Solver::visit_formula_clauses`] visits
    /// them.
    pub num_clauses: usize,
    /// FNV-1a over the clauses in visit order: each literal's
    /// [`Lit::code`] as four little-endian bytes, and after each clause the
    /// four bytes `ff ff ff ff` (no literal has that code).
    pub hash: u64,
}

/// Builds a [`CnfShape`] one clause at a time, for a caller that walks the
/// formula for its own reasons too.
#[derive(Debug, Default, Clone)]
pub struct ShapeHasher {
    fnv: Fnv1a,
    clauses: usize,
}

impl ShapeHasher {
    /// Folds in the next clause.
    pub fn clause(&mut self, lits: &[Lit]) {
        for &l in lits {
            self.fnv.update(&(l.code() as u32).to_le_bytes());
        }
        self.fnv.update(&u32::MAX.to_le_bytes());
        self.clauses += 1;
    }

    /// The shape of the clauses folded in, over `num_vars` variables.
    pub fn finish(&self, num_vars: usize) -> CnfShape {
        CnfShape {
            num_vars,
            num_clauses: self.clauses,
            hash: self.fnv.finish(),
        }
    }
}

/// The shape of a solver's current formula — the one
/// [`Solver::formula_clauses`] would capture — hashed in place, with no
/// copy of a clause. Must be called at decision level 0.
pub fn fingerprint(s: &Solver) -> CnfShape {
    let mut h = ShapeHasher::default();
    s.visit_formula_clauses(|c| h.clause(c));
    h.finish(s.num_vars())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_hashes_the_literal_codes_of_the_dumped_formula() {
        let mut s = Solver::new();
        let x: Vec<Lit> = (0..300).map(|_| s.new_var().positive()).collect();
        s.add_clause(&[x[0]]);
        s.add_clause(&[!x[1], x[299]]);
        s.add_clause(&[x[7], !x[8], x[9]]);
        let mut bytes = Vec::new();
        for c in &s.formula_clauses() {
            for l in c {
                bytes.extend((l.code() as u32).to_le_bytes());
            }
            bytes.extend([0xff; 4]);
        }
        let mut fnv = Fnv1a::default();
        fnv.update(&bytes);
        assert_eq!(
            fingerprint(&s),
            CnfShape {
                num_vars: 300,
                num_clauses: 3,
                hash: fnv.finish(),
            }
        );
        // Moving a literal to another clause moves the hash.
        let mut t = Solver::new();
        let y: Vec<Lit> = (0..300).map(|_| t.new_var().positive()).collect();
        t.add_clause(&[y[0]]);
        t.add_clause(&[!y[1], y[299], y[7]]);
        t.add_clause(&[!y[8], y[9]]);
        assert_ne!(fingerprint(&t).hash, fingerprint(&s).hash);
    }

    #[test]
    fn solver_dump_preserves_level0_units() {
        // Units are simplified into the trail by `add_clause` (falsified
        // literals are stripped, satisfied clauses dropped); the dump must
        // re-materialise them, or the formula a proof refutes would lose
        // every input unit.
        let mut s = Solver::new();
        let x: Vec<Lit> = (0..4).map(|_| s.new_var().positive()).collect();
        s.add_clause(&[x[0]]);
        s.add_clause(&[!x[0], x[1], x[2]]);
        s.add_clause(&[!x[2]]);
        s.add_clause(&[x[1], x[3]]);
        let dumped = s.formula_clauses();
        // The unit [1] fixed var 1 and propagation of [-1 2 3] with [-3]
        // fixed var 2; all three units must reappear in the dump.
        let units: Vec<&Vec<Lit>> = dumped.iter().filter(|c| c.len() == 1).collect();
        for unit in [x[0], !x[2], x[1]] {
            assert!(units.contains(&&vec![unit]), "unit {unit:?} lost");
        }
    }
}
