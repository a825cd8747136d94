//! DRAT proof representation and its binary wire format.
//!
//! A proof is a sequence of [`ProofLine`]s: clause additions and clause
//! deletions, exactly as streamed by `hh-sat`'s
//! [`hh_sat::proof::ProofSink`] into a [`MemoryProof`]. Certificate bundles
//! store it as **binary DRAT**, the compact format used by `drat-trim`:
//! each step is an `a`/`d` byte followed by variable-length (7-bit,
//! continuation-bit) encoded literals and a terminating `0x00`. A literal
//! `i` (DIMACS convention: 1-based, sign = polarity) maps to the unsigned
//! `2i` when positive and `2|i| + 1` when negative.

use hh_sat::proof::ProofSink;
use hh_sat::{Lit, Var};
use std::sync::{Arc, Mutex};

/// One step of a DRAT proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofLine {
    /// Addition of a (RUP/RAT-redundant) clause; empty = refutation done.
    Add(Vec<Lit>),
    /// Deletion of a clause previously in the formula. A hint: checkers may
    /// ignore it.
    Delete(Vec<Lit>),
}

impl ProofLine {
    /// The literals of the step, regardless of kind.
    pub fn lits(&self) -> &[Lit] {
        match self {
            ProofLine::Add(l) | ProofLine::Delete(l) => l,
        }
    }
}

/// An in-memory [`ProofSink`] capturing the proof as [`ProofLine`]s.
///
/// The line buffer lives behind an [`Arc`] so the caller can keep a
/// [`MemoryProof::handle`] while the sink itself is boxed into the solver,
/// and read the lines back after solving without downcasting.
#[derive(Debug, Default, Clone)]
pub struct MemoryProof {
    lines: Arc<Mutex<Vec<ProofLine>>>,
}

impl MemoryProof {
    /// Creates an empty proof buffer.
    pub fn new() -> MemoryProof {
        MemoryProof::default()
    }

    /// A second handle onto the same buffer.
    pub fn handle(&self) -> MemoryProof {
        self.clone()
    }

    /// Takes the recorded lines out of the buffer.
    pub fn take_lines(&self) -> Vec<ProofLine> {
        std::mem::take(&mut *self.lines.lock().unwrap())
    }

    /// Number of recorded lines.
    pub fn len(&self) -> usize {
        self.lines.lock().unwrap().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ProofSink for MemoryProof {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.lines
            .lock()
            .unwrap()
            .push(ProofLine::Add(lits.to_vec()));
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.lines
            .lock()
            .unwrap()
            .push(ProofLine::Delete(lits.to_vec()));
    }
}

fn dimacs_int(l: Lit) -> i64 {
    let v = l.var().index() as i64 + 1;
    if l.is_positive() {
        v
    } else {
        -v
    }
}

fn lit_from_dimacs(n: i64) -> Result<Lit, String> {
    if n == 0 {
        return Err("literal 0 inside a clause".into());
    }
    // A proof is outside input: a variable the solver's literal packing
    // cannot represent is an error here, not a truncated `Var`.
    let index = usize::try_from(n.unsigned_abs() - 1)
        .ok()
        .filter(|&i| i <= Var::MAX_INDEX)
        .ok_or_else(|| format!("literal {n}: variable out of range"))?;
    Ok(Var::from_index(index).lit(n > 0))
}

fn mapped_unsigned(l: Lit) -> u64 {
    let n = dimacs_int(l);
    if n > 0 {
        2 * n as u64
    } else {
        2 * n.unsigned_abs() + 1
    }
}

fn push_varint(out: &mut Vec<u8>, mut u: u64) {
    loop {
        let byte = (u & 0x7f) as u8;
        u >>= 7;
        if u == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Renders a proof in binary DRAT.
pub fn to_binary(lines: &[ProofLine]) -> Vec<u8> {
    let mut out = Vec::new();
    for line in lines {
        out.push(match line {
            ProofLine::Add(_) => b'a',
            ProofLine::Delete(_) => b'd',
        });
        for &l in line.lits() {
            push_varint(&mut out, mapped_unsigned(l));
        }
        out.push(0);
    }
    out
}

/// Parses a binary DRAT proof.
///
/// # Errors
///
/// Returns a description of the first malformed byte (bad step tag,
/// truncated varint, truncated clause, or a literal whose variable is out
/// of range, see [`Var::MAX_INDEX`]).
pub fn parse_binary(bytes: &[u8]) -> Result<Vec<ProofLine>, String> {
    let mut lines = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let tag = bytes[i];
        i += 1;
        let delete = match tag {
            b'a' => false,
            b'd' => true,
            other => return Err(format!("offset {}: bad step tag {other:#04x}", i - 1)),
        };
        let mut lits = Vec::new();
        loop {
            let mut u: u64 = 0;
            let mut shift = 0u32;
            loop {
                let byte = *bytes
                    .get(i)
                    .ok_or_else(|| format!("offset {i}: truncated proof"))?;
                i += 1;
                u |= u64::from(byte & 0x7f) << shift;
                shift += 7;
                if byte & 0x80 == 0 {
                    break;
                }
                if shift > 63 {
                    return Err(format!("offset {i}: varint overflow"));
                }
            }
            if u == 0 {
                break;
            }
            let n = if u.is_multiple_of(2) {
                (u / 2) as i64
            } else {
                -((u / 2) as i64)
            };
            lits.push(lit_from_dimacs(n).map_err(|e| format!("offset {i}: {e}"))?);
        }
        lines.push(if delete {
            ProofLine::Delete(lits)
        } else {
            ProofLine::Add(lits)
        });
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i64) -> Lit {
        lit_from_dimacs(n).unwrap()
    }

    fn sample() -> Vec<ProofLine> {
        vec![
            ProofLine::Add(vec![lit(1), lit(-2), lit(130)]),
            ProofLine::Delete(vec![lit(-1), lit(2)]),
            ProofLine::Add(vec![]),
        ]
    }

    #[test]
    fn binary_roundtrip() {
        let p = sample();
        let bin = to_binary(&p);
        assert_eq!(parse_binary(&bin).unwrap(), p);
        // Spot-check the mapping: literal 130 -> unsigned 260 -> two bytes.
        assert_eq!(bin[0], b'a');
        assert_eq!(bin[1], 2); // lit 1 -> 2
        assert_eq!(bin[2], 5); // lit -2 -> 5
        assert_eq!(&bin[3..5], &[0x84, 0x02]); // 260 = 0b100000100
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(parse_binary(&[b'x', 0]).is_err());
        assert!(parse_binary(&[b'a', 0x80]).is_err());
        assert!(parse_binary(&[b'a', 2]).is_err()); // missing terminator
    }

    #[test]
    fn memory_sink_records_in_order() {
        let mut sink = MemoryProof::new();
        let handle = sink.handle();
        sink.add_clause(&[lit(1)]);
        sink.delete_clause(&[lit(1), lit(2)]);
        sink.add_clause(&[]);
        let lines = handle.take_lines();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], ProofLine::Add(vec![lit(1)]));
        assert_eq!(lines[1], ProofLine::Delete(vec![lit(1), lit(2)]));
        assert_eq!(lines[2], ProofLine::Add(vec![]));
        assert!(handle.is_empty());
    }
}
