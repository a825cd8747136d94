//! DRAT proof representation and its binary wire format.
//!
//! A proof is the sequence of clauses a solver added, in order, exactly as
//! streamed by `hh-sat`'s [`hh_sat::proof::ProofSink`] into a
//! [`hh_sat::DratLog`]; the empty clause completes a refutation.
//! Certificate bundles store it as **binary DRAT**, the compact format used
//! by `drat-trim`: each step is an `a` byte followed by variable-length
//! (7-bit, continuation-bit) encoded literals and a terminating `0x00`. A literal `i` (DIMACS convention: 1-based, sign
//! = polarity) maps to the unsigned `2i` when positive and `2|i| + 1` when
//! negative. The writer lives with the sinks in `hh-sat`; the reader here
//! is the checker's and shares nothing with it. It also accepts the
//! format's `d` (deletion) steps, which older bundles may hold, and drops
//! them.

use hh_sat::proof::push_binary_step;
use hh_sat::{Lit, Var};

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

/// Renders a proof in binary DRAT: one `a` step per added clause
/// ([`hh_sat::proof::push_binary_step`], the writer session logs use).
pub fn to_binary(lines: &[Vec<Lit>]) -> Vec<u8> {
    let mut out = Vec::new();
    for line in lines {
        push_binary_step(&mut out, line);
    }
    out
}

/// Parses a binary DRAT proof into its added clauses. Deletion steps are
/// parsed like additions and then dropped: a forward RUP check over a
/// superset of the clauses a proof kept still only derives what the
/// formula implies.
///
/// # Errors
///
/// Returns a description of the first malformed byte (bad step tag,
/// truncated varint, a varint wider than 64 bits, truncated clause, or a
/// literal whose variable is out of range, see [`Var::MAX_INDEX`]).
pub fn parse_binary(bytes: &[u8]) -> Result<Vec<Vec<Lit>>, String> {
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
                let bits = u64::from(byte & 0x7f);
                if (bits << shift) >> shift != bits {
                    return Err(format!("offset {i}: varint overflow"));
                }
                u |= bits << shift;
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
        if !delete {
            lines.push(lits);
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i64) -> Lit {
        lit_from_dimacs(n).unwrap()
    }

    #[test]
    fn binary_roundtrip() {
        let p = vec![vec![lit(1), lit(-2), lit(130)], vec![lit(-1)], vec![]];
        let bin = to_binary(&p);
        assert_eq!(parse_binary(&bin).unwrap(), p);
        // Spot-check the mapping: literal 130 -> unsigned 260 -> two bytes.
        assert_eq!(bin[0], b'a');
        assert_eq!(bin[1], 2); // lit 1 -> 2
        assert_eq!(bin[2], 5); // lit -2 -> 5
        assert_eq!(&bin[3..5], &[0x84, 0x02]); // 260 = 0b100000100
    }

    #[test]
    fn deletion_steps_are_parsed_and_dropped() {
        // a 1 -2 0, d -1 2 0, a 0: the deletion goes, the additions stay.
        let bytes = [b'a', 2, 5, 0, b'd', 3, 4, 0, b'a', 0];
        assert_eq!(
            parse_binary(&bytes).unwrap(),
            vec![vec![lit(1), lit(-2)], vec![]]
        );
        // A deletion is still held to the byte grammar.
        assert!(parse_binary(&[b'd', 3]).is_err());
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(parse_binary(&[b'x', 0]).is_err());
        assert!(parse_binary(&[b'a', 0x80]).is_err());
        assert!(parse_binary(&[b'a', 2]).is_err()); // missing terminator

        // A tenth varint byte carries bit 63 only. These bytes spell
        // 2 + 2^64; read modulo 2^64 they would be the unit clause [1].
        let mut loose = vec![b'a', 0x82];
        loose.extend([0x80; 8]);
        loose.extend([0x02, 0x00]);
        let err = parse_binary(&loose).unwrap_err();
        assert!(err.contains("varint overflow"), "{err}");
    }
}
