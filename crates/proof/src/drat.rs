//! DRAT proof representation and the text/binary wire formats.
//!
//! A proof is a sequence of [`ProofLine`]s: clause additions and clause
//! deletions, exactly as streamed by `hh-sat`'s
//! [`hh_sat::proof::ProofSink`]. Two standard encodings are provided:
//!
//! * **Text DRAT** — one line per step, literals in DIMACS convention
//!   (1-based, sign = polarity), `0`-terminated; deletions are prefixed
//!   with `d`. Readable, diffable, accepted by external tools.
//! * **Binary DRAT** — the compact format used by `drat-trim`: each step is
//!   an `a`/`d` byte followed by variable-length (7-bit, continuation-bit)
//!   encoded literals and a terminating `0x00`. A literal `i` maps to the
//!   unsigned `2i` when positive and `2|i| + 1` when negative.

use hh_sat::proof::ProofSink;
use hh_sat::{Lit, Var};
use std::fmt::Write as _;
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
    // Proof text is outside input: a variable the solver's literal packing
    // cannot represent is an error here, not a truncated `Var`.
    let index = usize::try_from(n.unsigned_abs() - 1)
        .ok()
        .filter(|&i| i <= Var::MAX_INDEX)
        .ok_or_else(|| format!("literal {n}: variable out of range"))?;
    Ok(Var::from_index(index).lit(n > 0))
}

/// Renders a proof in text DRAT.
pub fn to_text(lines: &[ProofLine]) -> String {
    let mut out = String::new();
    for line in lines {
        if let ProofLine::Delete(_) = line {
            out.push_str("d ");
        }
        for &l in line.lits() {
            let _ = write!(out, "{} ", dimacs_int(l));
        }
        out.push_str("0\n");
    }
    out
}

/// Parses a text DRAT proof.
///
/// # Errors
///
/// Returns a description of the first malformed token or out-of-range
/// variable (see [`Var::MAX_INDEX`]).
pub fn parse_text(text: &str) -> Result<Vec<ProofLine>, String> {
    let mut lines = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let raw = raw.trim();
        if raw.is_empty() || raw.starts_with('c') {
            continue;
        }
        let (delete, body) =
            match raw
                .strip_prefix("d ")
                .or(if raw == "d" { Some("") } else { None })
            {
                Some(rest) => (true, rest),
                None => (false, raw),
            };
        let mut lits = Vec::new();
        let mut terminated = false;
        for tok in body.split_whitespace() {
            let n: i64 = tok
                .parse()
                .map_err(|_| format!("line {}: bad token {tok:?}", lineno + 1))?;
            if n == 0 {
                terminated = true;
                break;
            }
            lits.push(lit_from_dimacs(n).map_err(|e| format!("line {}: {e}", lineno + 1))?);
        }
        if !terminated {
            return Err(format!("line {}: missing terminating 0", lineno + 1));
        }
        lines.push(if delete {
            ProofLine::Delete(lits)
        } else {
            ProofLine::Add(lits)
        });
    }
    Ok(lines)
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

/// A streaming text-DRAT [`ProofSink`] over any [`std::io::Write`].
pub struct DratTextWriter<W: std::io::Write + Send> {
    w: W,
    bytes: u64,
}

impl<W: std::io::Write + Send> DratTextWriter<W> {
    /// Wraps `w`.
    pub fn new(w: W) -> DratTextWriter<W> {
        DratTextWriter { w, bytes: 0 }
    }

    /// Bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.w
    }

    fn write_step(&mut self, prefix: &str, lits: &[Lit]) {
        let mut s = String::with_capacity(prefix.len() + 4 * lits.len() + 2);
        s.push_str(prefix);
        for &l in lits {
            let _ = write!(s, "{} ", dimacs_int(l));
        }
        s.push_str("0\n");
        self.bytes += s.len() as u64;
        // Proof emission must not perturb solving; I/O errors surface when
        // the checker finds the file truncated.
        let _ = self.w.write_all(s.as_bytes());
    }
}

impl<W: std::io::Write + Send> std::fmt::Debug for DratTextWriter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DratTextWriter")
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl<W: std::io::Write + Send> ProofSink for DratTextWriter<W> {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.write_step("", lits);
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.write_step("d ", lits);
    }
}

/// A streaming binary-DRAT [`ProofSink`] over any [`std::io::Write`].
pub struct DratBinaryWriter<W: std::io::Write + Send> {
    w: W,
    bytes: u64,
}

impl<W: std::io::Write + Send> DratBinaryWriter<W> {
    /// Wraps `w`.
    pub fn new(w: W) -> DratBinaryWriter<W> {
        DratBinaryWriter { w, bytes: 0 }
    }

    /// Bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.w
    }

    fn write_step(&mut self, tag: u8, lits: &[Lit]) {
        let mut buf = Vec::with_capacity(2 + 2 * lits.len());
        buf.push(tag);
        for &l in lits {
            push_varint(&mut buf, mapped_unsigned(l));
        }
        buf.push(0);
        self.bytes += buf.len() as u64;
        let _ = self.w.write_all(&buf);
    }
}

impl<W: std::io::Write + Send> std::fmt::Debug for DratBinaryWriter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DratBinaryWriter")
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl<W: std::io::Write + Send> ProofSink for DratBinaryWriter<W> {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.write_step(b'a', lits);
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.write_step(b'd', lits);
    }
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
    fn text_roundtrip() {
        let p = sample();
        let text = to_text(&p);
        assert_eq!(text, "1 -2 130 0\nd -1 2 0\n0\n");
        assert_eq!(parse_text(&text).unwrap(), p);
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
    fn text_rejects_garbage() {
        assert!(parse_text("1 frog 0\n").is_err());
        assert!(parse_text("1 2\n").is_err()); // missing terminating 0
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

    #[test]
    fn writers_match_batch_encoders() {
        let p = sample();
        let mut tw = DratTextWriter::new(Vec::new());
        let mut bw = DratBinaryWriter::new(Vec::new());
        for line in &p {
            match line {
                ProofLine::Add(l) => {
                    tw.add_clause(l);
                    bw.add_clause(l);
                }
                ProofLine::Delete(l) => {
                    tw.delete_clause(l);
                    bw.delete_clause(l);
                }
            }
        }
        assert_eq!(tw.bytes_written() as usize, to_text(&p).len());
        assert_eq!(String::from_utf8(tw.into_inner()).unwrap(), to_text(&p));
        assert_eq!(bw.into_inner(), to_binary(&p));
    }
}
