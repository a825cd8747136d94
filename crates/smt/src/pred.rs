//! The relational predicate language of VeloCT (paper §5.1.1).
//!
//! Predicates are defined over a *product* netlist (a [`hh_netlist::miter`]
//! construction): each refers to the left and right copies of one base-design
//! state element.
//!
//! * [`Predicate::Eq`] — the copies hold equal values (the value may depend
//!   on public data but not on secrets).
//! * [`Predicate::EqConst`] — both copies hold one specific constant.
//! * [`Predicate::InSet`] — both copies are equal and the value matches one
//!   of a set of mask/match patterns. The `InSafeSet`/`InSafeUop` predicates
//!   and expert set annotations are all of this shape; the [`SetLabel`]
//!   records the provenance for reporting. The miner offers `InSafeSet` only
//!   on states every pattern fits ([`Pattern::fits`]) and the wire reader
//!   refuses a pattern that does not, so the evaluator and the encoder read
//!   every such predicate alike.

use crate::blast::TransitionEncoding;
use hh_netlist::{Bv, Netlist, StateId};
use hh_sat::Lit;

/// A mask/match bit pattern: a value `v` matches if `v & mask == value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pattern {
    /// Bits that participate in the match.
    pub mask: u64,
    /// Required value of the masked bits (must satisfy `value & mask == value`).
    pub value: u64,
}

impl Pattern {
    /// A pattern matching exactly `value` at full width.
    pub fn exact(width: u32, value: u64) -> Pattern {
        let mask = if width >= 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        Pattern {
            mask,
            value: value & mask,
        }
    }

    /// Whether `v` matches.
    pub fn matches(&self, v: u64) -> bool {
        v & self.mask == self.value
    }

    /// Whether a `width`-bit state can hold a value this pattern matches
    /// in every bit it names: no bit of `value` lies at or above `width`.
    /// Mask bits there are fine (they read as 0 on both sides), but a value
    /// bit there would match nothing to [`Pattern::matches`] while the
    /// encoder, which reads the state's bits only, drops it.
    pub fn fits(&self, width: u32) -> bool {
        width >= 64 || self.value >> width == 0
    }
}

/// Provenance of an [`Predicate::InSet`] predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SetLabel {
    /// Instruction-encoding restriction generated from the ISA spec (§5.1.1).
    InSafeSet,
    /// Decoded-uop restriction (BOOM-style expert annotation, §6.2).
    InSafeUop,
    /// Free-form expert annotation.
    Expert(String),
}

/// A relational predicate over a product netlist.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Predicate {
    /// Left and right copies are equal.
    Eq {
        /// Product state id of the left copy.
        left: StateId,
        /// Product state id of the right copy.
        right: StateId,
    },
    /// Both copies equal the given constant.
    EqConst {
        /// Product state id of the left copy.
        left: StateId,
        /// Product state id of the right copy.
        right: StateId,
        /// The pinned value.
        value: Bv,
    },
    /// Copies are equal and the value matches one of the patterns.
    InSet {
        /// Product state id of the left copy.
        left: StateId,
        /// Product state id of the right copy.
        right: StateId,
        /// Accepted mask/match patterns (disjunction).
        patterns: Vec<Pattern>,
        /// Provenance label.
        label: SetLabel,
    },
    /// Conditional predicate (ConjunCT's Impl type, the future-work
    /// extension of the paper's §5.2.1): the 1-bit guards are equal on both
    /// sides, and when the guard is set the body holds. Used to constrain
    /// table-entry payloads *only while the entry is valid*, which makes
    /// stale residue harmless without example masking.
    Impl {
        /// Product state id of the left guard (a valid bit).
        guard_left: StateId,
        /// Product state id of the right guard.
        guard_right: StateId,
        /// The conditionally-required predicate; never itself an `Impl`
        /// (the wire reader refuses one).
        body: Box<Predicate>,
    },
}

impl Predicate {
    /// Builds an `Eq` predicate.
    pub fn eq(left: StateId, right: StateId) -> Predicate {
        Predicate::Eq { left, right }
    }

    /// Builds an `EqConst` predicate.
    pub fn eq_const(left: StateId, right: StateId, value: Bv) -> Predicate {
        Predicate::EqConst { left, right, value }
    }

    /// Builds an `InSet` predicate.
    pub fn in_set(
        left: StateId,
        right: StateId,
        patterns: Vec<Pattern>,
        label: SetLabel,
    ) -> Predicate {
        Predicate::InSet {
            left,
            right,
            patterns,
            label,
        }
    }

    /// Builds an `Impl` predicate with a 1-bit guard pair.
    pub fn implication(guard_left: StateId, guard_right: StateId, body: Predicate) -> Predicate {
        Predicate::Impl {
            guard_left,
            guard_right,
            body: Box::new(body),
        }
    }

    /// The *primary* product state pair this predicate constrains (the
    /// body's pair for `Impl`).
    pub fn states(&self) -> (StateId, StateId) {
        match self {
            Predicate::Eq { left, right }
            | Predicate::EqConst { left, right, .. }
            | Predicate::InSet { left, right, .. } => (*left, *right),
            Predicate::Impl { body, .. } => body.states(),
        }
    }

    /// Every product state the predicate reads (guards included).
    pub fn all_states(&self) -> Vec<StateId> {
        match self {
            Predicate::Eq { left, right }
            | Predicate::EqConst { left, right, .. }
            | Predicate::InSet { left, right, .. } => vec![*left, *right],
            Predicate::Impl {
                guard_left,
                guard_right,
                body,
            } => {
                let mut v = vec![*guard_left, *guard_right];
                v.extend(body.all_states());
                v
            }
        }
    }

    /// Evaluates the predicate over arbitrary state values.
    pub fn eval_with(&self, get: &mut dyn FnMut(StateId) -> Bv) -> bool {
        match self {
            Predicate::Eq { left, right } => get(*left) == get(*right),
            Predicate::EqConst { left, right, value } => {
                get(*left) == *value && get(*right) == *value
            }
            Predicate::InSet {
                left,
                right,
                patterns,
                ..
            } => {
                let l = get(*left);
                let r = get(*right);
                l == r && patterns.iter().any(|p| p.matches(l.bits()))
            }
            Predicate::Impl {
                guard_left,
                guard_right,
                body,
            } => {
                let gl = get(*guard_left);
                let gr = get(*guard_right);
                gl == gr && (!gl.is_nonzero() || body.eval_with(get))
            }
        }
    }

    /// Evaluates over a concrete product state.
    pub fn eval(&self, values: &hh_netlist::eval::StateValues) -> bool {
        self.eval_with(&mut |s| values.get(s))
    }

    /// Encodes the predicate over the *current* state variables.
    pub fn encode_current(&self, enc: &mut TransitionEncoding<'_>) -> Lit {
        self.encode(enc, false)
    }

    /// Encodes the predicate over the *next* state values (bit-blasting the
    /// 1-step cones of its states on first use).
    pub fn encode_next(&self, enc: &mut TransitionEncoding<'_>) -> Lit {
        self.encode(enc, true)
    }

    fn encode(&self, enc: &mut TransitionEncoding<'_>, next: bool) -> Lit {
        let fetch = |enc: &mut TransitionEncoding<'_>, s: StateId| {
            if next {
                enc.next_state_lits(s)
            } else {
                enc.state_lits(s)
            }
        };
        if let Predicate::Impl {
            guard_left,
            guard_right,
            body,
        } = self
        {
            let gl = fetch(enc, *guard_left);
            let gr = fetch(enc, *guard_right);
            let b = body.encode(enc, next);
            let cnf = enc.cnf_mut();
            let geq = cnf.veq(&gl, &gr);
            let gset = cnf.vredor(&gl);
            // geq ∧ (gset → body)
            let cond = cnf.or(!gset, b);
            return cnf.and(geq, cond);
        }
        let (l, r) = self.states();
        let lv = fetch(enc, l);
        let rv = fetch(enc, r);
        self.encode_over(enc, &lv, &rv)
    }

    fn encode_over(&self, enc: &mut TransitionEncoding<'_>, lv: &[Lit], rv: &[Lit]) -> Lit {
        let cnf = enc.cnf_mut();
        match self {
            Predicate::Eq { .. } => cnf.veq(lv, rv),
            Predicate::EqConst { value, .. } => {
                let cv = cnf.const_bits(value.width(), value.bits());
                let le = cnf.veq(lv, &cv);
                let re = cnf.veq(rv, &cv);
                cnf.and(le, re)
            }
            Predicate::InSet { patterns, .. } => {
                let eq = cnf.veq(lv, rv);
                let mut any = cnf.lit_false();
                for p in patterns {
                    // (l & mask) == value, bit by bit over masked positions.
                    let mut bits = Vec::new();
                    for (i, &l) in lv.iter().enumerate() {
                        if (p.mask >> i) & 1 == 1 {
                            let want = (p.value >> i) & 1 == 1;
                            bits.push(if want { l } else { !l });
                        }
                    }
                    let m = cnf.and_many(&bits);
                    any = cnf.or(any, m);
                }
                cnf.and(eq, any)
            }
            Predicate::Impl { .. } => unreachable!("handled in encode()"),
        }
    }

    /// Serialises the predicate to the certificate wire format: a single
    /// line of whitespace-separated tokens, with states referenced by their
    /// *product-netlist* names so the encoding survives across processes
    /// (state ids are not stable identifiers; names are).
    ///
    /// The format is prefix self-delimiting (`Impl` bodies nest without
    /// brackets):
    ///
    /// ```text
    /// eq    <left> <right>
    /// eqc   <left> <right> <width> <bits-hex>
    /// inset <left> <right> <label> <n> <mask-hex>:<value-hex> ...
    /// impl  <guard-left> <guard-right> <body tokens...>
    /// ```
    pub fn to_wire(&self, netlist: &Netlist) -> String {
        let mut out = String::new();
        self.wire_into(netlist, &mut out);
        out
    }

    fn wire_into(&self, netlist: &Netlist, out: &mut String) {
        use std::fmt::Write as _;
        let name = |s: StateId| wire_escape(netlist.state_name(s));
        match self {
            Predicate::Eq { left, right } => {
                let _ = write!(out, "eq {} {}", name(*left), name(*right));
            }
            Predicate::EqConst { left, right, value } => {
                let _ = write!(
                    out,
                    "eqc {} {} {} {:x}",
                    name(*left),
                    name(*right),
                    value.width(),
                    value.bits()
                );
            }
            Predicate::InSet {
                left,
                right,
                patterns,
                label,
            } => {
                let tag = match label {
                    SetLabel::InSafeSet => "insafeset".to_string(),
                    SetLabel::InSafeUop => "insafeuop".to_string(),
                    SetLabel::Expert(s) => format!("expert:{}", wire_escape(s)),
                };
                let _ = write!(
                    out,
                    "inset {} {} {} {}",
                    name(*left),
                    name(*right),
                    tag,
                    patterns.len()
                );
                for p in patterns {
                    let _ = write!(out, " {:x}:{:x}", p.mask, p.value);
                }
            }
            Predicate::Impl {
                guard_left,
                guard_right,
                body,
            } => {
                let _ = write!(out, "impl {} {} ", name(*guard_left), name(*guard_right));
                body.wire_into(netlist, out);
            }
        }
    }

    /// Parses the wire format produced by [`Predicate::to_wire`], resolving
    /// state names against `netlist`. The whole token stream must be
    /// consumed.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed input, when a state
    /// name does not exist in the netlist (the certificate and the design it
    /// claims to certify disagree), when the two states of a pair — or a
    /// constant and its states — differ in width, when a constant or an
    /// `inset` pattern value does not fit that width ([`Pattern::fits`]), or
    /// when an `impl` body is itself an `impl` (nothing builds one, and
    /// parsing a hostile chain of them would recurse once per link).
    pub fn from_wire(text: &str, netlist: &Netlist) -> Result<Predicate, String> {
        let mut toks = text.split_whitespace();
        let pred = Predicate::parse_wire(&mut toks, netlist, false)?;
        match toks.next() {
            None => Ok(pred),
            Some(t) => Err(format!("trailing token {t:?} after predicate")),
        }
    }

    fn parse_wire<'t>(
        toks: &mut impl Iterator<Item = &'t str>,
        netlist: &Netlist,
        in_impl: bool,
    ) -> Result<Predicate, String> {
        let mut next = |what: &str| {
            toks.next()
                .ok_or_else(|| format!("unexpected end of predicate: missing {what}"))
        };
        let state = |tok: &str| {
            let name = wire_unescape(tok);
            netlist
                .find_state(&name)
                .ok_or_else(|| format!("unknown state {name:?}"))
        };
        // Every predicate relates the two copies of one state (or one
        // guard): the encoder compares them bit by bit, so a pair of unequal
        // widths is malformed input, not a predicate.
        let pair = |left: &str, right: &str| {
            let (left, right) = (state(left)?, state(right)?);
            if netlist.state_width(left) != netlist.state_width(right) {
                return Err(format!(
                    "states {:?} and {:?} differ in width",
                    netlist.state_name(left),
                    netlist.state_name(right)
                ));
            }
            Ok((left, right))
        };
        let kind = next("kind")?;
        match kind {
            "eq" => {
                let (left, right) = pair(next("left")?, next("right")?)?;
                Ok(Predicate::Eq { left, right })
            }
            "eqc" => {
                let (left, right) = pair(next("left")?, next("right")?)?;
                let width: u32 = next("width")?
                    .parse()
                    .map_err(|e| format!("bad width: {e}"))?;
                if width != netlist.state_width(left) {
                    return Err(format!(
                        "constant width {width} is not the width of state {:?}",
                        netlist.state_name(left)
                    ));
                }
                let bits =
                    u64::from_str_radix(next("bits")?, 16).map_err(|e| format!("bad bits: {e}"))?;
                if width < 64 && bits >= 1u64 << width {
                    return Err(format!("constant {bits:#x} exceeds width {width}"));
                }
                Ok(Predicate::EqConst {
                    left,
                    right,
                    value: Bv::new(width, bits),
                })
            }
            "inset" => {
                let (left, right) = pair(next("left")?, next("right")?)?;
                let tag = next("label")?;
                let label = match tag {
                    "insafeset" => SetLabel::InSafeSet,
                    "insafeuop" => SetLabel::InSafeUop,
                    other => match other.strip_prefix("expert:") {
                        Some(s) => SetLabel::Expert(wire_unescape(s)),
                        None => return Err(format!("unknown set label {other:?}")),
                    },
                };
                let n: usize = next("pattern count")?
                    .parse()
                    .map_err(|e| format!("bad pattern count: {e}"))?;
                let width = netlist.state_width(left);
                let mut patterns = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let tok = next("pattern")?;
                    let (m, v) = tok
                        .split_once(':')
                        .ok_or_else(|| format!("bad pattern {tok:?}"))?;
                    let mask = u64::from_str_radix(m, 16).map_err(|e| format!("bad mask: {e}"))?;
                    let value =
                        u64::from_str_radix(v, 16).map_err(|e| format!("bad value: {e}"))?;
                    if value & mask != value {
                        return Err(format!("pattern value {value:#x} outside mask {mask:#x}"));
                    }
                    let pattern = Pattern { mask, value };
                    if !pattern.fits(width) {
                        return Err(format!("pattern value {value:#x} exceeds width {width}"));
                    }
                    patterns.push(pattern);
                }
                Ok(Predicate::InSet {
                    left,
                    right,
                    patterns,
                    label,
                })
            }
            "impl" if in_impl => Err("an impl body cannot itself be an impl".into()),
            "impl" => {
                let (guard_left, guard_right) = pair(next("guard left")?, next("guard right")?)?;
                let body = Predicate::parse_wire(toks, netlist, true)?;
                Ok(Predicate::Impl {
                    guard_left,
                    guard_right,
                    body: Box::new(body),
                })
            }
            other => Err(format!("unknown predicate kind {other:?}")),
        }
    }

    /// Human-readable rendering using the product netlist's state names.
    pub fn describe(&self, netlist: &Netlist) -> String {
        let base = |s: StateId| {
            let n = netlist.state_name(s);
            n.strip_prefix("l$")
                .or(n.strip_prefix("r$"))
                .unwrap_or(n)
                .to_string()
        };
        match self {
            Predicate::Eq { left, .. } => format!("Eq({})", base(*left)),
            Predicate::EqConst { left, value, .. } => {
                format!("EqConst({}, {})", base(*left), value)
            }
            Predicate::InSet {
                left,
                patterns,
                label,
                ..
            } => format!("{label:?}({}, {} patterns)", base(*left), patterns.len()),
            Predicate::Impl {
                guard_left, body, ..
            } => format!("Impl({} -> {})", base(*guard_left), body.describe(netlist)),
        }
    }
}

/// Escapes whitespace and `%` so arbitrary names survive the
/// whitespace-tokenised wire format.
fn wire_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace(' ', "%20")
        .replace('\t', "%09")
}

fn wire_unescape(s: &str) -> String {
    s.replace("%20", " ")
        .replace("%09", "\t")
        .replace("%25", "%")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_netlist::eval::StateValues;
    use hh_netlist::miter::Miter;
    use hh_netlist::Netlist;
    use hh_sat::SolveResult;

    fn simple_miter() -> (Netlist, Miter) {
        let mut base = Netlist::new("t");
        let r = base.state("r", 8, Bv::zero(8));
        let i = base.input("i", 8);
        base.set_next(r, i);
        let m = Miter::build(&base);
        (base, m)
    }

    #[test]
    fn pattern_matching() {
        let p = Pattern {
            mask: 0x7f,
            value: 0x33,
        };
        assert!(p.matches(0x33));
        assert!(p.matches(0xb3)); // bit 7 ignored
        assert!(!p.matches(0x32));
        let e = Pattern::exact(8, 0x33);
        assert!(!e.matches(0xb3));
    }

    #[test]
    fn eval_eq_and_const() {
        let (base, m) = simple_miter();
        let r = base.find_state("r").unwrap();
        let (l, rr) = m.pair(r);
        let mut sv = StateValues::initial(m.netlist());
        sv.set(l, Bv::new(8, 5));
        sv.set(rr, Bv::new(8, 5));
        assert!(Predicate::eq(l, rr).eval(&sv));
        assert!(Predicate::eq_const(l, rr, Bv::new(8, 5)).eval(&sv));
        assert!(!Predicate::eq_const(l, rr, Bv::new(8, 6)).eval(&sv));
        sv.set(rr, Bv::new(8, 9));
        assert!(!Predicate::eq(l, rr).eval(&sv));
    }

    #[test]
    fn eval_in_set() {
        let (base, m) = simple_miter();
        let r = base.find_state("r").unwrap();
        let (l, rr) = m.pair(r);
        let pred = Predicate::in_set(
            l,
            rr,
            vec![Pattern::exact(8, 1), Pattern::exact(8, 2)],
            SetLabel::InSafeSet,
        );
        let mut sv = StateValues::initial(m.netlist());
        sv.set(l, Bv::new(8, 2));
        sv.set(rr, Bv::new(8, 2));
        assert!(pred.eval(&sv));
        sv.set(l, Bv::new(8, 3));
        sv.set(rr, Bv::new(8, 3));
        assert!(!pred.eval(&sv));
    }

    /// The SAT encoding of each predicate agrees with its concrete `eval` on
    /// a sweep of values.
    #[test]
    fn encoding_agrees_with_eval() {
        let (base, m) = simple_miter();
        let r = base.find_state("r").unwrap();
        let (l, rr) = m.pair(r);
        let preds = vec![
            Predicate::eq(l, rr),
            Predicate::eq_const(l, rr, Bv::new(8, 7)),
            Predicate::in_set(
                l,
                rr,
                vec![
                    Pattern {
                        mask: 0x0f,
                        value: 0x07,
                    },
                    Pattern::exact(8, 0x20),
                ],
                SetLabel::InSafeSet,
            ),
        ];
        for pred in &preds {
            for (lv, rv) in [(7u64, 7u64), (7, 8), (0x17, 0x17), (0x20, 0x20), (0, 0)] {
                let mut enc = TransitionEncoding::new(m.netlist());
                enc.fix_state(l, Bv::new(8, lv));
                enc.fix_state(rr, Bv::new(8, rv));
                let lit = pred.encode_current(&mut enc);
                let sat =
                    enc.cnf_mut().solver_mut().solve_with_assumptions(&[lit]) == SolveResult::Sat;
                let mut sv = StateValues::initial(m.netlist());
                sv.set(l, Bv::new(8, lv));
                sv.set(rr, Bv::new(8, rv));
                assert_eq!(sat, pred.eval(&sv), "{pred:?} on ({lv},{rv})");
            }
        }
    }

    #[test]
    fn impl_predicate_eval_semantics() {
        let mut base = Netlist::new("t");
        let valid = base.state("v", 1, Bv::bit(false));
        let uop = base.state("uop", 8, Bv::zero(8));
        base.keep_state(valid);
        base.keep_state(uop);
        let m = Miter::build(&base);
        let body = Predicate::in_set(
            m.left(uop),
            m.right(uop),
            vec![Pattern::exact(8, 0x13)],
            SetLabel::InSafeUop,
        );
        let pred = Predicate::implication(m.left(valid), m.right(valid), body);
        let mut sv = StateValues::initial(m.netlist());
        // Guard clear: body irrelevant, any uop residue allowed.
        sv.set(m.left(uop), Bv::new(8, 0xff));
        sv.set(m.right(uop), Bv::new(8, 0xff));
        assert!(pred.eval(&sv));
        // Guard set: body must hold.
        sv.set(m.left(valid), Bv::bit(true));
        sv.set(m.right(valid), Bv::bit(true));
        assert!(!pred.eval(&sv));
        sv.set(m.left(uop), Bv::new(8, 0x13));
        sv.set(m.right(uop), Bv::new(8, 0x13));
        assert!(pred.eval(&sv));
        // Guards must be equal.
        sv.set(m.right(valid), Bv::bit(false));
        assert!(!pred.eval(&sv));
    }

    #[test]
    fn impl_predicate_encoding_agrees_with_eval() {
        let mut base = Netlist::new("t");
        let valid = base.state("v", 1, Bv::bit(false));
        let uop = base.state("uop", 8, Bv::zero(8));
        base.keep_state(valid);
        base.keep_state(uop);
        let m = Miter::build(&base);
        let body = Predicate::in_set(
            m.left(uop),
            m.right(uop),
            vec![Pattern::exact(8, 0x13)],
            SetLabel::InSafeUop,
        );
        let pred = Predicate::implication(m.left(valid), m.right(valid), body);
        for (gl, gr, ul, ur) in [
            (0u64, 0u64, 0xffu64, 0xffu64),
            (1, 1, 0x13, 0x13),
            (1, 1, 0x14, 0x14),
            (1, 0, 0x13, 0x13),
            (0, 0, 0x13, 0x99),
        ] {
            let mut enc = TransitionEncoding::new(m.netlist());
            enc.fix_state(m.left(valid), Bv::new(1, gl));
            enc.fix_state(m.right(valid), Bv::new(1, gr));
            enc.fix_state(m.left(uop), Bv::new(8, ul));
            enc.fix_state(m.right(uop), Bv::new(8, ur));
            let lit = pred.encode_current(&mut enc);
            let sat = enc.cnf_mut().solver_mut().solve_with_assumptions(&[lit])
                == hh_sat::SolveResult::Sat;
            let mut sv = StateValues::initial(m.netlist());
            sv.set(m.left(valid), Bv::new(1, gl));
            sv.set(m.right(valid), Bv::new(1, gr));
            sv.set(m.left(uop), Bv::new(8, ul));
            sv.set(m.right(uop), Bv::new(8, ur));
            assert_eq!(sat, pred.eval(&sv), "case ({gl},{gr},{ul:#x},{ur:#x})");
        }
    }

    #[test]
    fn impl_all_states_includes_guards() {
        let mut base = Netlist::new("t");
        let valid = base.state("v", 1, Bv::bit(false));
        let uop = base.state("uop", 8, Bv::zero(8));
        base.keep_state(valid);
        base.keep_state(uop);
        let m = Miter::build(&base);
        let body = Predicate::eq(m.left(uop), m.right(uop));
        let pred = Predicate::implication(m.left(valid), m.right(valid), body);
        let states = pred.all_states();
        assert_eq!(states.len(), 4);
        assert!(states.contains(&m.left(valid)));
        assert!(states.contains(&m.right(uop)));
        assert_eq!(pred.states(), (m.left(uop), m.right(uop)));
    }

    #[test]
    fn wire_format_roundtrips_every_shape() {
        let mut base = Netlist::new("t");
        let valid = base.state("v", 1, Bv::bit(false));
        let uop = base.state("uop", 8, Bv::zero(8));
        base.keep_state(valid);
        base.keep_state(uop);
        let m = Miter::build(&base);
        let n = m.netlist();
        let (l, r) = (m.left(uop), m.right(uop));
        let preds = vec![
            Predicate::eq(l, r),
            Predicate::eq_const(l, r, Bv::new(8, 0xa5)),
            Predicate::in_set(
                l,
                r,
                vec![
                    Pattern {
                        mask: 0xf0,
                        value: 0x30,
                    },
                    Pattern::exact(8, 0x13),
                ],
                SetLabel::InSafeSet,
            ),
            Predicate::in_set(
                l,
                r,
                vec![Pattern::exact(8, 1)],
                SetLabel::Expert("my annotation %".into()),
            ),
            Predicate::implication(m.left(valid), m.right(valid), Predicate::eq(l, r)),
        ];
        for p in &preds {
            let wire = p.to_wire(n);
            let back = Predicate::from_wire(&wire, n).unwrap_or_else(|e| {
                panic!("{wire:?} failed to parse: {e}");
            });
            assert_eq!(&back, p, "wire {wire:?}");
        }
    }

    #[test]
    fn wire_format_rejects_malformed_input() {
        let (mut base, _) = simple_miter();
        let v = base.state("v", 1, Bv::zero(1));
        base.keep_state(v);
        let m = Miter::build(&base);
        let n = m.netlist();
        for bad in [
            "",
            "eq l$r r$v",                        // a pair of unequal widths
            "eqc l$r r$r 4 1",                   // constant narrower than the state
            "inset l$v r$r insafeset 0",         // unequal widths again
            "impl l$v r$r eq l$r r$r",           // ... in a guard
            "eq l$r",                            // missing right
            "eq l$r r$nope",                     // unknown state
            "frob l$r r$r",                      // unknown kind
            "eqc l$r r$r 0 0",                   // zero width
            "eqc l$r r$r 8 1ff",                 // constant exceeds width
            "inset l$r r$r insafeset 2 ff:1",    // missing pattern
            "inset l$r r$r insafeset 1 f:10",    // value outside mask
            "inset l$r r$r insafeset 1 1ff:100", // value exceeds width
            "inset l$r r$r eqconstset 1 ff:1",   // unknown set label
            "eq l$r r$r trailing",               // trailing garbage
            // An impl whose body is an impl (the guard pair alone is fine).
            "impl l$v r$v impl l$v r$v eq l$r r$r",
        ] {
            assert!(
                Predicate::from_wire(bad, n).is_err(),
                "{bad:?} should be rejected"
            );
        }
        assert!(Predicate::from_wire("impl l$v r$v eq l$r r$r", n).is_ok());
    }

    #[test]
    fn describe_strips_side_prefix() {
        let (base, m) = simple_miter();
        let r = base.find_state("r").unwrap();
        let (l, rr) = m.pair(r);
        assert_eq!(Predicate::eq(l, rr).describe(m.netlist()), "Eq(r)");
    }
}
