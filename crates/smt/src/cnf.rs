//! Gate-level CNF construction (Tseitin encoding) with structural caching.
//!
//! [`Cnf`] wraps an [`hh_sat::Solver`] and offers boolean gates and
//! word-level primitives over little-endian literal vectors. Gates are
//! hash-consed (with polarity normalisation for XOR) so that the shared
//! structure of a netlist cone maps to shared CNF.

use hh_sat::{Lit, Solver};
use std::collections::{HashMap, HashSet};

/// A hash-cons table mapping normalised gate input pairs to output literals.
pub(crate) type GateCache = HashMap<(Lit, Lit), Lit>;

/// Heap bytes of a vector's buffer.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * std::mem::size_of::<T>()) as u64
}

/// Heap bytes of a hash map's table, estimated from its capacity: one entry
/// and one control byte per bucket at the standard library's 7/8 load
/// factor. A function of the insertion history only, so it repeats exactly.
pub(crate) fn map_bytes<K, V>(m: &HashMap<K, V>) -> u64 {
    (m.capacity() * (std::mem::size_of::<(K, V)>() + 1) * 8 / 7) as u64
}

/// [`map_bytes`] of a hash set.
pub(crate) fn set_bytes<K>(s: &HashSet<K>) -> u64 {
    (s.capacity() * (std::mem::size_of::<K>() + 1) * 8 / 7) as u64
}

/// A sequence of literal rows (clauses, or the bit vectors of a literal
/// table) stored back to back: one buffer of literals and one of row ends,
/// instead of one heap block per row.
#[derive(Debug, Clone, Default)]
pub(crate) struct LitRows {
    lits: Vec<Lit>,
    /// `ends[i]` is where row `i` stops in `lits`; it starts where row
    /// `i - 1` stopped.
    ends: Vec<u32>,
}

impl LitRows {
    pub(crate) fn push(&mut self, row: &[Lit]) {
        self.lits.extend_from_slice(row);
        let end = u32::try_from(self.lits.len()).expect("literal rows exceed 32-bit addressing");
        self.ends.push(end);
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The rows in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[Lit]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let row = &self.lits[start..end as usize];
            start = end as usize;
            row
        })
    }

    pub(crate) fn shrink_to_fit(&mut self) {
        self.lits.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Heap bytes of the two buffers.
    pub(crate) fn bytes(&self) -> u64 {
        vec_bytes(&self.lits) + vec_bytes(&self.ends)
    }
}

impl<'a> FromIterator<&'a [Lit]> for LitRows {
    fn from_iter<I: IntoIterator<Item = &'a [Lit]>>(rows: I) -> LitRows {
        let mut out = LitRows::default();
        for row in rows {
            out.push(row);
        }
        out
    }
}

/// A CNF builder over an embedded SAT solver.
#[derive(Debug)]
pub struct Cnf {
    solver: Solver,
    true_lit: Lit,
    and_cache: GateCache,
    xor_cache: GateCache,
    /// When recording, every clause added after [`Cnf::new`]'s true-literal
    /// unit is appended here in order, so an identical builder state can be
    /// replayed later by [`Cnf::restore`].
    recording: Option<LitRows>,
}

impl Default for Cnf {
    fn default() -> Self {
        Self::new()
    }
}

impl Cnf {
    /// Creates a builder with a fresh solver.
    pub fn new() -> Cnf {
        let mut solver = Solver::new();
        let true_lit = solver.new_var().positive();
        solver.add_clause(&[true_lit]);
        Cnf {
            solver,
            true_lit,
            and_cache: HashMap::new(),
            xor_cache: HashMap::new(),
            recording: None,
        }
    }

    /// Rebuilds a builder whose solver state is byte-identical to one that
    /// produced `n_vars` variables and the recorded `clauses` (in order)
    /// through the normal gate API.
    ///
    /// Variables are created in index order and clauses replayed in the
    /// original order; since clause insertion neither bumps branching
    /// activity nor depends on anything but insertion order, the resulting
    /// solver — clause arena, watchlists, level-0 trail, decision queue — is
    /// exactly what the recording builder held. The gate caches are installed
    /// verbatim so subsequent gate requests keep hash-consing against the
    /// replayed structure.
    pub(crate) fn restore(
        n_vars: usize,
        clauses: &LitRows,
        and_cache: GateCache,
        xor_cache: GateCache,
    ) -> Cnf {
        let mut cnf = Cnf::new();
        while cnf.solver.num_vars() < n_vars {
            cnf.solver.new_var();
        }
        for cl in clauses.iter() {
            cnf.solver.add_clause(cl);
        }
        cnf.and_cache = and_cache;
        cnf.xor_cache = xor_cache;
        cnf
    }

    /// Starts recording every subsequently added clause for later replay.
    pub(crate) fn start_recording(&mut self) {
        self.recording = Some(LitRows::default());
    }

    /// Stops recording and returns the ordered clause log (empty if
    /// recording was never started).
    pub(crate) fn take_recording(&mut self) -> LitRows {
        self.recording.take().unwrap_or_default()
    }

    /// Single funnel for clause insertion so recording sees every clause.
    fn add(&mut self, lits: &[Lit]) {
        if let Some(rec) = &mut self.recording {
            rec.push(lits);
        }
        self.solver.add_clause(lits);
    }

    /// Heap bytes held by the solver and the gate caches.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.solver.resident_bytes() + map_bytes(&self.and_cache) + map_bytes(&self.xor_cache)
    }

    /// The literal that is constant true.
    pub fn lit_true(&self) -> Lit {
        self.true_lit
    }

    /// The literal that is constant false.
    pub fn lit_false(&self) -> Lit {
        !self.true_lit
    }

    /// A constant literal.
    pub fn lit_const(&self, b: bool) -> Lit {
        if b {
            self.true_lit
        } else {
            !self.true_lit
        }
    }

    /// A fresh unconstrained literal.
    pub fn fresh(&mut self) -> Lit {
        self.solver.new_var().positive()
    }

    /// A vector of fresh literals.
    pub fn fresh_vec(&mut self, width: u32) -> Vec<Lit> {
        (0..width).map(|_| self.fresh()).collect()
    }

    /// Adds a clause directly.
    pub fn clause(&mut self, lits: &[Lit]) {
        self.add(lits);
    }

    /// Snapshots the gate hash-cons caches (for encoding-cache harvest).
    pub(crate) fn gate_caches(&self) -> (GateCache, GateCache) {
        (self.and_cache.clone(), self.xor_cache.clone())
    }

    /// Access to the underlying solver (for solving and model extraction).
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Immutable access to the underlying solver.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Encodes a constant bit-vector value.
    pub fn const_bits(&self, width: u32, bits: u64) -> Vec<Lit> {
        (0..width)
            .map(|i| self.lit_const((bits >> i) & 1 == 1))
            .collect()
    }

    // ------------------------------------------------------------------
    // Boolean gates
    // ------------------------------------------------------------------

    /// `a AND b` as a (cached) Tseitin gate.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.lit_false() || b == self.lit_false() || a == !b {
            return self.lit_false();
        }
        if a == self.lit_true() {
            return b;
        }
        if b == self.lit_true() || a == b {
            return a;
        }
        let key = if a.code() <= b.code() { (a, b) } else { (b, a) };
        if let Some(&o) = self.and_cache.get(&key) {
            return o;
        }
        let o = self.fresh();
        self.add(&[!o, a]);
        self.add(&[!o, b]);
        self.add(&[o, !a, !b]);
        self.and_cache.insert(key, o);
        o
    }

    /// `a OR b`.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        let n = self.and(!a, !b);
        !n
    }

    /// `a XOR b` as a (cached, polarity-normalised) gate.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant folding.
        if a == self.lit_true() {
            return !b;
        }
        if a == self.lit_false() {
            return b;
        }
        if b == self.lit_true() {
            return !a;
        }
        if b == self.lit_false() {
            return a;
        }
        if a == b {
            return self.lit_false();
        }
        if a == !b {
            return self.lit_true();
        }
        // Normalise: use positive forms; flip output for each stripped
        // negation. xor(!a, b) == !xor(a, b).
        let mut flip = false;
        let mut pa = a;
        let mut pb = b;
        if !pa.is_positive() {
            pa = !pa;
            flip = !flip;
        }
        if !pb.is_positive() {
            pb = !pb;
            flip = !flip;
        }
        let key = if pa.code() <= pb.code() {
            (pa, pb)
        } else {
            (pb, pa)
        };
        let o = if let Some(&o) = self.xor_cache.get(&key) {
            o
        } else {
            let o = self.fresh();
            self.add(&[!o, pa, pb]);
            self.add(&[!o, !pa, !pb]);
            self.add(&[o, !pa, pb]);
            self.add(&[o, pa, !pb]);
            self.xor_cache.insert(key, o);
            o
        };
        if flip {
            !o
        } else {
            o
        }
    }

    /// `if c then t else e`.
    pub fn mux(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if c == self.lit_true() {
            return t;
        }
        if c == self.lit_false() {
            return e;
        }
        if t == e {
            return t;
        }
        // mux(c, t, e) = (c AND t) OR (!c AND e); build directly for a
        // tighter encoding.
        let o = self.fresh();
        self.add(&[!c, !t, o]);
        self.add(&[!c, t, !o]);
        self.add(&[c, !e, o]);
        self.add(&[c, e, !o]);
        // Redundant but propagation-helping: t == e -> o == t.
        self.add(&[!t, !e, o]);
        self.add(&[t, e, !o]);
        o
    }

    /// AND over many literals.
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.lit_true();
        for &l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// OR over many literals.
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.lit_false();
        for &l in lits {
            acc = self.or(acc, l);
        }
        acc
    }

    /// XOR over many literals (parity).
    pub fn xor_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.lit_false();
        for &l in lits {
            acc = self.xor(acc, l);
        }
        acc
    }

    // ------------------------------------------------------------------
    // Word-level primitives over little-endian literal vectors
    // ------------------------------------------------------------------

    /// Bitwise NOT.
    pub fn vnot(&self, a: &[Lit]) -> Vec<Lit> {
        a.iter().map(|&l| !l).collect()
    }

    /// Bitwise AND (equal widths).
    pub fn vand(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| self.and(x, y)).collect()
    }

    /// Bitwise OR (equal widths).
    pub fn vor(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| self.or(x, y)).collect()
    }

    /// Bitwise XOR (equal widths).
    pub fn vxor(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| self.xor(x, y)).collect()
    }

    /// Bitwise multiplexer.
    pub fn vite(&mut self, c: Lit, t: &[Lit], e: &[Lit]) -> Vec<Lit> {
        debug_assert_eq!(t.len(), e.len());
        t.iter().zip(e).map(|(&x, &y)| self.mux(c, x, y)).collect()
    }

    /// Full adder: returns `(sum, carry_out)`.
    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.xor(a, b);
        let sum = self.xor(axb, cin);
        let ab = self.and(a, b);
        let axb_cin = self.and(axb, cin);
        let cout = self.or(ab, axb_cin);
        (sum, cout)
    }

    /// Ripple-carry addition with carry-in; result truncated to the width.
    fn add_with_carry(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        let mut out = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let (s, c) = self.full_adder(x, y, carry);
            out.push(s);
            carry = c;
        }
        out
    }

    /// Addition modulo `2^w`.
    pub fn vadd(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let zero = self.lit_false();
        self.add_with_carry(a, b, zero)
    }

    /// Subtraction modulo `2^w` (`a + !b + 1`).
    pub fn vsub(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let nb = self.vnot(b);
        let one = self.lit_true();
        self.add_with_carry(a, &nb, one)
    }

    /// Two's-complement negation.
    pub fn vneg(&mut self, a: &[Lit]) -> Vec<Lit> {
        let zero = self.const_bits(a.len() as u32, 0);
        self.vsub(&zero, a)
    }

    /// Shift-and-add multiplication modulo `2^w`.
    pub fn vmul(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        let w = a.len();
        let mut acc = self.const_bits(w as u32, 0);
        for (i, &bi) in b.iter().enumerate() {
            // partial = (a << i) AND replicate(bi), truncated to w.
            let mut partial = vec![self.lit_false(); w];
            for j in 0..(w - i) {
                partial[i + j] = self.and(a[j], bi);
            }
            acc = self.vadd(&acc, &partial);
        }
        acc
    }

    /// Equality as a single literal.
    pub fn veq(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        let diffs: Vec<Lit> = a.iter().zip(b).map(|(&x, &y)| self.xor(x, y)).collect();
        let any = self.or_many(&diffs);
        !any
    }

    /// Unsigned less-than as a single literal.
    pub fn vult(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        // From LSB up: lt = (!a & b) | ((a == b) & lt_below).
        let mut lt = self.lit_false();
        for (&x, &y) in a.iter().zip(b) {
            let xlty = self.and(!x, y);
            let eq = !self.xor(x, y);
            let keep = self.and(eq, lt);
            lt = self.or(xlty, keep);
        }
        lt
    }

    /// Signed less-than: flip the sign bits and compare unsigned.
    pub fn vslt(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        let n = fa.len();
        fa[n - 1] = !fa[n - 1];
        fb[n - 1] = !fb[n - 1];
        self.vult(&fa, &fb)
    }

    /// OR-reduction.
    pub fn vredor(&mut self, a: &[Lit]) -> Lit {
        self.or_many(a)
    }

    /// AND-reduction.
    pub fn vredand(&mut self, a: &[Lit]) -> Lit {
        self.and_many(a)
    }

    /// XOR-reduction.
    pub fn vredxor(&mut self, a: &[Lit]) -> Lit {
        self.xor_many(a)
    }

    /// Shift helper: barrel shifter over the shift-amount bits.
    ///
    /// `fill` is what shifts in (`false` lit for logical shifts, the sign
    /// bit for arithmetic right shift). `left` selects direction.
    fn barrel_shift(&mut self, a: &[Lit], amount: &[Lit], left: bool, fill: Lit) -> Vec<Lit> {
        let w = a.len();
        // Number of amount bits that matter.
        let significant = (usize::BITS - (w - 1).leading_zeros()).max(1) as usize;
        let mut cur: Vec<Lit> = a.to_vec();
        for (k, &amt_bit) in amount.iter().take(significant).enumerate() {
            let sh = 1usize << k;
            let mut shifted = vec![fill; w];
            if sh < w {
                if left {
                    shifted[sh..w].copy_from_slice(&cur[..w - sh]);
                    for item in shifted.iter_mut().take(sh) {
                        *item = self.lit_false();
                    }
                } else {
                    shifted[..w - sh].copy_from_slice(&cur[sh..w]);
                    // upper bits already `fill`
                }
            }
            cur = self.vite(amt_bit, &shifted, &cur);
        }
        // If any higher amount bit is set the result saturates to all-fill
        // (or zero for left shifts).
        if amount.len() > significant {
            let high: Vec<Lit> = amount[significant..].to_vec();
            let overflow = self.or_many(&high);
            let sat = if left {
                self.const_bits(w as u32, 0)
            } else {
                vec![fill; w]
            };
            cur = self.vite(overflow, &sat, &cur);
        }
        cur
    }

    /// Logical shift left by a variable amount.
    pub fn vshl(&mut self, a: &[Lit], amount: &[Lit]) -> Vec<Lit> {
        let f = self.lit_false();
        self.barrel_shift(a, amount, true, f)
    }

    /// Logical shift right by a variable amount.
    pub fn vlshr(&mut self, a: &[Lit], amount: &[Lit]) -> Vec<Lit> {
        let f = self.lit_false();
        self.barrel_shift(a, amount, false, f)
    }

    /// Arithmetic shift right by a variable amount.
    pub fn vashr(&mut self, a: &[Lit], amount: &[Lit]) -> Vec<Lit> {
        let sign = *a.last().expect("non-empty vector");
        self.barrel_shift(a, amount, false, sign)
    }

    /// Concatenation: `hi` becomes the high bits.
    pub fn vconcat(&self, hi: &[Lit], lo: &[Lit]) -> Vec<Lit> {
        let mut out = lo.to_vec();
        out.extend_from_slice(hi);
        out
    }

    /// Slice `[hi:lo]` inclusive.
    pub fn vslice(&self, a: &[Lit], hi: u32, lo: u32) -> Vec<Lit> {
        a[lo as usize..=hi as usize].to_vec()
    }

    /// Zero extension.
    pub fn vuext(&self, a: &[Lit], to: u32) -> Vec<Lit> {
        let mut out = a.to_vec();
        out.resize(to as usize, self.lit_false());
        out
    }

    /// Sign extension.
    pub fn vsext(&self, a: &[Lit], to: u32) -> Vec<Lit> {
        let sign = *a.last().expect("non-empty vector");
        let mut out = a.to_vec();
        out.resize(to as usize, sign);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_sat::SolveResult;

    /// Asserts bits equal a constant via unit assumptions; returns SAT-ness.
    fn check_value(cnf: &mut Cnf, bits: &[Lit], expect: u64) -> bool {
        let assumptions: Vec<Lit> = bits
            .iter()
            .enumerate()
            .map(|(i, &l)| if (expect >> i) & 1 == 1 { l } else { !l })
            .collect();
        cnf.solver_mut().solve_with_assumptions(&assumptions) == SolveResult::Sat
    }

    /// Constrains inputs, then checks the op output has exactly `expect`.
    fn binop_case(
        op: impl Fn(&mut Cnf, &[Lit], &[Lit]) -> Vec<Lit>,
        w: u32,
        a: u64,
        b: u64,
        expect: u64,
    ) {
        let mut cnf = Cnf::new();
        let av = cnf.const_bits(w, a);
        let bv = cnf.const_bits(w, b);
        let out = op(&mut cnf, &av, &bv);
        assert!(
            check_value(&mut cnf, &out, expect),
            "op({a},{b}) != {expect}"
        );
        // And that it *cannot* be anything else: flipping any output bit of
        // the expected value must be UNSAT.
        for i in 0..w as usize {
            let mut assumptions: Vec<Lit> = out
                .iter()
                .enumerate()
                .map(|(j, &l)| if (expect >> j) & 1 == 1 { l } else { !l })
                .collect();
            assumptions[i] = !assumptions[i];
            assert_eq!(
                cnf.solver_mut().solve_with_assumptions(&assumptions),
                SolveResult::Unsat,
                "output not functional at bit {i}"
            );
        }
    }

    #[test]
    fn adder_cases() {
        binop_case(|c, a, b| c.vadd(a, b), 8, 3, 5, 8);
        binop_case(|c, a, b| c.vadd(a, b), 8, 255, 1, 0);
        binop_case(|c, a, b| c.vadd(a, b), 4, 9, 9, 2);
    }

    #[test]
    fn subtractor_cases() {
        binop_case(|c, a, b| c.vsub(a, b), 8, 5, 3, 2);
        binop_case(|c, a, b| c.vsub(a, b), 8, 0, 1, 255);
    }

    #[test]
    fn multiplier_cases() {
        binop_case(|c, a, b| c.vmul(a, b), 8, 7, 6, 42);
        binop_case(|c, a, b| c.vmul(a, b), 8, 16, 16, 0);
        binop_case(|c, a, b| c.vmul(a, b), 6, 5, 13, 1); // 65 mod 64
    }

    #[test]
    fn shift_cases() {
        binop_case(|c, a, b| c.vshl(a, b), 8, 0x81, 1, 0x02);
        binop_case(|c, a, b| c.vlshr(a, b), 8, 0x81, 1, 0x40);
        binop_case(|c, a, b| c.vashr(a, b), 8, 0x81, 1, 0xc0);
        binop_case(|c, a, b| c.vshl(a, b), 8, 0xff, 9, 0); // overshift
        binop_case(|c, a, b| c.vashr(a, b), 8, 0x80, 200, 0xff); // sign fill
    }

    #[test]
    fn comparison_gates() {
        let mut cnf = Cnf::new();
        let a = cnf.const_bits(8, 0x80);
        let b = cnf.const_bits(8, 0x01);
        let ult = cnf.vult(&b, &a);
        let slt = cnf.vslt(&a, &b);
        let eq = cnf.veq(&a, &a);
        let neq = cnf.veq(&a, &b);
        assert_eq!(
            cnf.solver_mut()
                .solve_with_assumptions(&[ult, slt, eq, !neq]),
            SolveResult::Sat
        );
    }

    #[test]
    fn xor_polarity_normalisation() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh();
        let b = cnf.fresh();
        let x1 = cnf.xor(a, b);
        let x2 = cnf.xor(!a, b);
        assert_eq!(x1, !x2); // shared gate, flipped output
        let x3 = cnf.xor(b, a);
        assert_eq!(x1, x3); // commutative cache hit
    }

    #[test]
    fn and_constant_folding() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh();
        let t = cnf.lit_true();
        let f = cnf.lit_false();
        assert_eq!(cnf.and(a, t), a);
        assert_eq!(cnf.and(a, f), f);
        assert_eq!(cnf.and(a, a), a);
        assert_eq!(cnf.and(a, !a), f);
    }

    #[test]
    fn mux_functionality() {
        let mut cnf = Cnf::new();
        let c = cnf.fresh();
        let t = cnf.fresh();
        let e = cnf.fresh();
        let o = cnf.mux(c, t, e);
        // c=1 -> o == t
        assert_eq!(
            cnf.solver_mut().solve_with_assumptions(&[c, t, !o]),
            SolveResult::Unsat
        );
        // c=0 -> o == e
        assert_eq!(
            cnf.solver_mut().solve_with_assumptions(&[!c, !e, o]),
            SolveResult::Unsat
        );
    }

    #[test]
    fn reductions() {
        let mut cnf = Cnf::new();
        let v = cnf.const_bits(4, 0b1010);
        let ro = cnf.vredor(&v);
        let ra = cnf.vredand(&v);
        let rx = cnf.vredxor(&v);
        assert_eq!(
            cnf.solver_mut().solve_with_assumptions(&[ro, !ra, !rx]),
            SolveResult::Sat
        );
    }

    #[test]
    fn structure_ops() {
        let mut cnf = Cnf::new();
        let hi = cnf.const_bits(4, 0xa);
        let lo = cnf.const_bits(4, 0x5);
        let cc = cnf.vconcat(&hi, &lo);
        assert!(check_value(&mut cnf, &cc, 0xa5));
        let sl = cnf.vslice(&cc, 7, 4);
        assert!(check_value(&mut cnf, &sl, 0xa));
        let ux = cnf.vuext(&lo, 8);
        assert!(check_value(&mut cnf, &ux, 0x05));
        let sx = cnf.vsext(&hi, 8);
        assert!(check_value(&mut cnf, &sx, 0xfa));
    }
}
