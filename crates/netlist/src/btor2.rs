//! btor2 subset reader and writer.
//!
//! The paper's tool consumes hardware designs in the btor2 format emitted by
//! yosys (§6.1). This module implements the word-level subset of btor2 that
//! our IR covers: bit-vector sorts up to 64 bits, `input`/`state` with
//! `init`/`next`, constants, the standard combinational operators, and
//! `output`/`bad` markers (both become named outputs).
//!
//! Arrays, multi-line comments and justice/fairness properties are not
//! supported; encountering them is a parse error rather than a silent skip.

use crate::bv::Bv;
use crate::netlist::{Netlist, NodeId, NodeOp, StateId};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Errors produced by [`parse_btor2`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Btor2Error {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Btor2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "btor2 parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for Btor2Error {}

fn err(line: usize, message: impl Into<String>) -> Btor2Error {
    Btor2Error {
        line,
        message: message.into(),
    }
}

/// `Err` on `line` unless `ok`. The [`Netlist`] builders `assert!` their
/// width and name preconditions, so the reader checks each one first: a
/// hostile file is an error, never a panic.
fn require(ok: bool, line: usize, message: impl FnOnce() -> String) -> Result<(), Btor2Error> {
    if ok {
        Ok(())
    } else {
        Err(err(line, message()))
    }
}

/// Parses btor2 text into a [`Netlist`].
///
/// States without an `init` line default to zero; states without a `next`
/// line are an error (our transition systems are complete).
///
/// # Errors
///
/// Returns [`Btor2Error`] on unsupported constructs, malformed lines,
/// dangling references, a reused id, duplicate names or `next` lines,
/// operand widths the operator does not accept, a result whose width is not
/// its line's declared sort, and a constant that does not fit its sort.
pub fn parse_btor2(text: &str) -> Result<Netlist, Btor2Error> {
    let mut netlist = Netlist::new("btor2");
    let mut sorts: HashMap<u64, u32> = HashMap::new();
    let mut nodes: HashMap<u64, NodeId> = HashMap::new();
    let mut states: HashMap<u64, StateId> = HashMap::new();
    let mut next_seen: BTreeMap<u64, bool> = BTreeMap::new();

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = match raw.find(';') {
            Some(i) => &raw[..i],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let id: u64 = toks[0]
            .parse()
            .map_err(|_| err(lineno, format!("bad node id {}", toks[0])))?;
        let kind = *toks.get(1).ok_or_else(|| err(lineno, "missing kind"))?;
        require(
            !sorts.contains_key(&id) && !nodes.contains_key(&id),
            lineno,
            || format!("id {id} is already bound"),
        )?;

        let get_sort = |tok: &str| -> Result<u32, Btor2Error> {
            let sid: u64 = tok
                .parse()
                .map_err(|_| err(lineno, format!("bad sort ref {tok}")))?;
            sorts
                .get(&sid)
                .copied()
                .ok_or_else(|| err(lineno, format!("unknown sort {sid}")))
        };
        let get_node = |nodes: &HashMap<u64, NodeId>, tok: &str| -> Result<NodeId, Btor2Error> {
            let nid: i64 = tok
                .parse()
                .map_err(|_| err(lineno, format!("bad node ref {tok}")))?;
            if nid < 0 {
                return Err(err(lineno, "negated node refs are not supported"));
            }
            nodes
                .get(&(nid as u64))
                .copied()
                .ok_or_else(|| err(lineno, format!("unknown node {nid}")))
        };

        match kind {
            "sort" => {
                if toks.get(2) != Some(&"bitvec") {
                    return Err(err(lineno, "only bitvec sorts are supported"));
                }
                let w: u32 = toks
                    .get(3)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(lineno, "bad sort width"))?;
                if !(1..=crate::bv::MAX_WIDTH).contains(&w) {
                    return Err(err(lineno, format!("unsupported width {w}")));
                }
                sorts.insert(id, w);
            }
            "input" => {
                let w = get_sort(toks.get(2).ok_or_else(|| err(lineno, "missing sort"))?)?;
                let name = toks
                    .get(3)
                    .map_or_else(|| format!("input_{id}"), |s| s.to_string());
                require(netlist.find_input(&name).is_none(), lineno, || {
                    format!("duplicate input name {name}")
                })?;
                let node = netlist.input(name, w);
                nodes.insert(id, node);
            }
            "state" => {
                let w = get_sort(toks.get(2).ok_or_else(|| err(lineno, "missing sort"))?)?;
                let name = toks
                    .get(3)
                    .map_or_else(|| format!("state_{id}"), |s| s.to_string());
                require(netlist.find_state(&name).is_none(), lineno, || {
                    format!("duplicate state name {name}")
                })?;
                let sid = netlist.state(name, w, Bv::zero(w));
                nodes.insert(id, netlist.state_node(sid));
                states.insert(id, sid);
                next_seen.insert(id, false);
            }
            "init" => {
                let state_tok = toks.get(3).ok_or_else(|| err(lineno, "missing state"))?;
                let sref: u64 = state_tok
                    .parse()
                    .map_err(|_| err(lineno, "bad state ref"))?;
                let sid = *states
                    .get(&sref)
                    .ok_or_else(|| err(lineno, format!("init of non-state {sref}")))?;
                let val = get_node(
                    &nodes,
                    toks.get(4).ok_or_else(|| err(lineno, "missing value"))?,
                )?;
                let NodeOp::Const(c) = netlist.node(val).op else {
                    return Err(err(lineno, "init value must be a constant"));
                };
                let w = netlist.state_width(sid);
                require(c.width() == w, lineno, || {
                    format!("init of a {w}-bit state with a {}-bit value", c.width())
                })?;
                netlist.set_init(sid, c);
            }
            "next" => {
                let state_tok = toks.get(3).ok_or_else(|| err(lineno, "missing state"))?;
                let sref: u64 = state_tok
                    .parse()
                    .map_err(|_| err(lineno, "bad state ref"))?;
                let sid = *states
                    .get(&sref)
                    .ok_or_else(|| err(lineno, format!("next of non-state {sref}")))?;
                let val = get_node(
                    &nodes,
                    toks.get(4).ok_or_else(|| err(lineno, "missing value"))?,
                )?;
                let (w, vw) = (netlist.state_width(sid), netlist.width(val));
                require(w == vw, lineno, || {
                    format!("next of a {w}-bit state with a {vw}-bit value")
                })?;
                require(!next_seen[&sref], lineno, || {
                    format!("second next of state {sref}")
                })?;
                netlist.set_next(sid, val);
                next_seen.insert(sref, true);
            }
            "const" | "constd" | "consth" => {
                let w = get_sort(toks.get(2).ok_or_else(|| err(lineno, "missing sort"))?)?;
                let lit = toks.get(3).ok_or_else(|| err(lineno, "missing literal"))?;
                let radix = match kind {
                    "const" => 2,
                    "constd" => 10,
                    _ => 16,
                };
                let bits = u64::from_str_radix(lit, radix)
                    .map_err(|_| err(lineno, format!("bad constant {lit}")))?;
                let value = Bv::new(w, bits);
                require(value.bits() == bits, lineno, || {
                    format!("constant {lit} does not fit {w} bits")
                })?;
                nodes.insert(id, netlist.constant(value));
            }
            "one" | "ones" | "zero" => {
                let w = get_sort(toks.get(2).ok_or_else(|| err(lineno, "missing sort"))?)?;
                let v = match kind {
                    "one" => Bv::new(w, 1),
                    "ones" => Bv::ones(w),
                    _ => Bv::zero(w),
                };
                nodes.insert(id, netlist.constant(v));
            }
            "constraint" => {
                let node = get_node(
                    &nodes,
                    toks.get(2).ok_or_else(|| err(lineno, "missing node"))?,
                )?;
                let w = netlist.width(node);
                require(w == 1, lineno, || format!("{w}-bit constraint"))?;
                netlist.add_constraint(node);
            }
            "output" | "bad" => {
                let node = get_node(
                    &nodes,
                    toks.get(2).ok_or_else(|| err(lineno, "missing node"))?,
                )?;
                let name = toks
                    .get(3)
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| format!("{kind}_{id}"));
                netlist.add_output(name, node);
            }
            // Unary operators.
            "not" | "neg" | "redor" | "redand" | "redxor" => {
                let w = get_sort(toks.get(2).ok_or_else(|| err(lineno, "missing sort"))?)?;
                let a = get_node(
                    &nodes,
                    toks.get(3).ok_or_else(|| err(lineno, "missing operand"))?,
                )?;
                let node = match kind {
                    "not" => netlist.not(a),
                    "neg" => netlist.neg(a),
                    "redor" => netlist.redor(a),
                    "redand" => netlist.redand(a),
                    _ => netlist.redxor(a),
                };
                nodes.insert(id, declared(&netlist, lineno, w, node)?);
            }
            // Extensions carry the pad amount.
            "uext" | "sext" => {
                let w = get_sort(toks.get(2).ok_or_else(|| err(lineno, "missing sort"))?)?;
                let a = get_node(
                    &nodes,
                    toks.get(3).ok_or_else(|| err(lineno, "missing operand"))?,
                )?;
                let pad: u32 = toks
                    .get(4)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(lineno, "bad extension width"))?;
                let aw = netlist.width(a);
                require(w.checked_sub(aw) == Some(pad), lineno, || {
                    format!("{kind} of a {aw}-bit operand by {pad} to {w} bits")
                })?;
                let node = if kind == "uext" {
                    netlist.uext(a, w)
                } else {
                    netlist.sext(a, w)
                };
                nodes.insert(id, node);
            }
            "slice" => {
                let w = get_sort(toks.get(2).ok_or_else(|| err(lineno, "missing sort"))?)?;
                let a = get_node(
                    &nodes,
                    toks.get(3).ok_or_else(|| err(lineno, "missing operand"))?,
                )?;
                let hi: u32 = toks
                    .get(4)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(lineno, "bad slice hi"))?;
                let lo: u32 = toks
                    .get(5)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(lineno, "bad slice lo"))?;
                let aw = netlist.width(a);
                require(hi >= lo && hi < aw, lineno, || {
                    format!("slice [{hi}:{lo}] of a {aw}-bit operand")
                })?;
                let node = netlist.slice(a, hi, lo);
                nodes.insert(id, declared(&netlist, lineno, w, node)?);
            }
            "ite" => {
                let w = get_sort(toks.get(2).ok_or_else(|| err(lineno, "missing sort"))?)?;
                let c = get_node(
                    &nodes,
                    toks.get(3).ok_or_else(|| err(lineno, "missing cond"))?,
                )?;
                let t = get_node(
                    &nodes,
                    toks.get(4).ok_or_else(|| err(lineno, "missing then"))?,
                )?;
                let e = get_node(
                    &nodes,
                    toks.get(5).ok_or_else(|| err(lineno, "missing else"))?,
                )?;
                let (cw, tw, ew) = (netlist.width(c), netlist.width(t), netlist.width(e));
                require(cw == 1 && tw == ew, lineno, || {
                    format!("ite of a {cw}-bit condition over {tw} and {ew} bits")
                })?;
                let node = netlist.ite(c, t, e);
                nodes.insert(id, declared(&netlist, lineno, w, node)?);
            }
            // Binary operators.
            "and" | "or" | "xor" | "add" | "sub" | "mul" | "eq" | "neq" | "ult" | "slt" | "sll"
            | "srl" | "sra" | "concat" => {
                let w = get_sort(toks.get(2).ok_or_else(|| err(lineno, "missing sort"))?)?;
                let a = get_node(
                    &nodes,
                    toks.get(3).ok_or_else(|| err(lineno, "missing lhs"))?,
                )?;
                let b = get_node(
                    &nodes,
                    toks.get(4).ok_or_else(|| err(lineno, "missing rhs"))?,
                )?;
                let (aw, bw) = (netlist.width(a), netlist.width(b));
                let ok = match kind {
                    // Shift amounts may have any width.
                    "sll" | "srl" | "sra" => true,
                    "concat" => aw + bw <= crate::bv::MAX_WIDTH,
                    _ => aw == bw,
                };
                require(ok, lineno, || {
                    format!("{kind} of {aw}-bit and {bw}-bit operands")
                })?;
                let node = match kind {
                    "and" => netlist.and(a, b),
                    "or" => netlist.or(a, b),
                    "xor" => netlist.xor(a, b),
                    "add" => netlist.add(a, b),
                    "sub" => netlist.sub(a, b),
                    "mul" => netlist.mul(a, b),
                    "eq" => netlist.eq(a, b),
                    "neq" => netlist.ne(a, b),
                    "ult" => netlist.ult(a, b),
                    "slt" => netlist.slt(a, b),
                    "sll" => netlist.shl(a, b),
                    "srl" => netlist.lshr(a, b),
                    "sra" => netlist.ashr(a, b),
                    _ => netlist.concat(a, b),
                };
                nodes.insert(id, declared(&netlist, lineno, w, node)?);
            }
            other => {
                return Err(err(
                    lineno,
                    format!("unsupported btor2 construct `{other}`"),
                ))
            }
        }
    }

    // In btor id order, so the error names the lowest such state.
    for (&sref, &seen) in &next_seen {
        if !seen {
            return Err(err(0, format!("state (btor id {sref}) has no next")));
        }
    }
    Ok(netlist)
}

/// `node`, the result of an operator line, if its width is the line's
/// declared sort `w`.
fn declared(netlist: &Netlist, line: usize, w: u32, node: NodeId) -> Result<NodeId, Btor2Error> {
    let nw = netlist.width(node);
    require(nw == w, line, || {
        format!("a {nw}-bit result declared as {w} bits")
    })?;
    Ok(node)
}

/// Serialises a [`Netlist`] to btor2 text (round-trips through
/// [`parse_btor2`]).
///
/// # Panics
///
/// Panics if the netlist is incomplete.
pub fn to_btor2(netlist: &Netlist) -> String {
    netlist.assert_complete();
    let mut out = String::new();
    let _ = writeln!(out, "; btor2 emitted by hh-netlist: {}", netlist.name());
    let mut next_id: u64 = 1;
    let mut sort_ids: HashMap<u32, u64> = HashMap::new();
    let mut node_ids: Vec<u64> = vec![0; netlist.num_nodes()];

    // Collect all widths used, emit sorts first.
    let mut widths: Vec<u32> = (0..netlist.num_nodes())
        .map(|i| netlist.node(NodeId(i as u32)).width)
        .collect();
    widths.sort_unstable();
    widths.dedup();
    for w in widths {
        let _ = writeln!(out, "{next_id} sort bitvec {w}");
        sort_ids.insert(w, next_id);
        next_id += 1;
    }

    // Emit nodes in topological (index) order.
    for idx in 0..netlist.num_nodes() {
        let nid = NodeId(idx as u32);
        let node = netlist.node(nid);
        let sort = sort_ids[&node.width];
        let id = next_id;
        next_id += 1;
        node_ids[idx] = id;
        let r = |x: NodeId| node_ids[x.index()];
        match node.op {
            NodeOp::Input(i) => {
                let _ = writeln!(out, "{id} input {sort} {}", netlist.input_name(i));
            }
            NodeOp::State(s) => {
                let _ = writeln!(out, "{id} state {sort} {}", netlist.state_name(s));
            }
            NodeOp::Const(c) => {
                let _ = writeln!(out, "{id} constd {sort} {}", c.bits());
            }
            NodeOp::Not(a) => {
                let _ = writeln!(out, "{id} not {sort} {}", r(a));
            }
            NodeOp::Neg(a) => {
                let _ = writeln!(out, "{id} neg {sort} {}", r(a));
            }
            NodeOp::RedOr(a) => {
                let _ = writeln!(out, "{id} redor {sort} {}", r(a));
            }
            NodeOp::RedAnd(a) => {
                let _ = writeln!(out, "{id} redand {sort} {}", r(a));
            }
            NodeOp::RedXor(a) => {
                let _ = writeln!(out, "{id} redxor {sort} {}", r(a));
            }
            NodeOp::And(a, b) => {
                let _ = writeln!(out, "{id} and {sort} {} {}", r(a), r(b));
            }
            NodeOp::Or(a, b) => {
                let _ = writeln!(out, "{id} or {sort} {} {}", r(a), r(b));
            }
            NodeOp::Xor(a, b) => {
                let _ = writeln!(out, "{id} xor {sort} {} {}", r(a), r(b));
            }
            NodeOp::Add(a, b) => {
                let _ = writeln!(out, "{id} add {sort} {} {}", r(a), r(b));
            }
            NodeOp::Sub(a, b) => {
                let _ = writeln!(out, "{id} sub {sort} {} {}", r(a), r(b));
            }
            NodeOp::Mul(a, b) => {
                let _ = writeln!(out, "{id} mul {sort} {} {}", r(a), r(b));
            }
            NodeOp::Eq(a, b) => {
                let _ = writeln!(out, "{id} eq {sort} {} {}", r(a), r(b));
            }
            NodeOp::Ult(a, b) => {
                let _ = writeln!(out, "{id} ult {sort} {} {}", r(a), r(b));
            }
            NodeOp::Slt(a, b) => {
                let _ = writeln!(out, "{id} slt {sort} {} {}", r(a), r(b));
            }
            NodeOp::Shl(a, b) => {
                let _ = writeln!(out, "{id} sll {sort} {} {}", r(a), r(b));
            }
            NodeOp::Lshr(a, b) => {
                let _ = writeln!(out, "{id} srl {sort} {} {}", r(a), r(b));
            }
            NodeOp::Ashr(a, b) => {
                let _ = writeln!(out, "{id} sra {sort} {} {}", r(a), r(b));
            }
            NodeOp::Ite(c, t, e) => {
                let _ = writeln!(out, "{id} ite {sort} {} {} {}", r(c), r(t), r(e));
            }
            NodeOp::Concat(a, b) => {
                let _ = writeln!(out, "{id} concat {sort} {} {}", r(a), r(b));
            }
            NodeOp::Slice(a, hi, lo) => {
                let _ = writeln!(out, "{id} slice {sort} {} {hi} {lo}", r(a));
            }
            NodeOp::Uext(a) => {
                let pad = node.width - netlist.width(a);
                let _ = writeln!(out, "{id} uext {sort} {} {pad}", r(a));
            }
            NodeOp::Sext(a) => {
                let pad = node.width - netlist.width(a);
                let _ = writeln!(out, "{id} sext {sort} {} {pad}", r(a));
            }
        }
    }

    // init / next lines. Init constants may need fresh const nodes.
    for s in netlist.state_ids() {
        let w = netlist.state_width(s);
        let sort = sort_ids[&w];
        let state_btor = node_ids[netlist.state_node(s).index()];
        let init = netlist.init_of(s);
        let cid = next_id;
        next_id += 1;
        let _ = writeln!(out, "{cid} constd {sort} {}", init.bits());
        let iid = next_id;
        next_id += 1;
        let _ = writeln!(out, "{iid} init {sort} {state_btor} {cid}");
        let nid = next_id;
        next_id += 1;
        let next_btor = node_ids[netlist.next_of(s).index()];
        let _ = writeln!(out, "{nid} next {sort} {state_btor} {next_btor}");
    }

    for &c in netlist.constraints() {
        let id = next_id;
        next_id += 1;
        let _ = writeln!(out, "{id} constraint {}", node_ids[c.index()]);
    }
    for (name, node) in netlist.outputs() {
        let id = next_id;
        next_id += 1;
        let _ = writeln!(out, "{id} output {} {name}", node_ids[node.index()]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{step, InputValues, StateValues};

    #[test]
    fn parse_simple_counter() {
        let text = "\
1 sort bitvec 4
2 state 1 cnt
3 one 1
4 add 1 2 3
5 next 1 2 4
6 output 2 cnt_out
";
        let n = parse_btor2(text).unwrap();
        assert_eq!(n.num_states(), 1);
        let cnt = n.find_state("cnt").unwrap();
        let mut s = StateValues::initial(&n);
        let inputs = InputValues::zeros(&n);
        s = step(&n, &s, &inputs);
        s = step(&n, &s, &inputs);
        assert_eq!(s.get(cnt).bits(), 2);
    }

    #[test]
    fn init_values_honoured() {
        let text = "\
1 sort bitvec 8
2 state 1 r
3 constd 1 42
4 init 1 2 3
5 next 1 2 2
";
        let n = parse_btor2(text).unwrap();
        let r = n.find_state("r").unwrap();
        assert_eq!(n.init_of(r).bits(), 42);
    }

    #[test]
    fn missing_next_is_error() {
        let text = "1 sort bitvec 1\n2 state 1 r\n";
        assert!(parse_btor2(text).is_err());
    }

    /// A second binding of an id is refused on its line: a repeated state
    /// would shadow the first, which then has no next function.
    #[test]
    fn reused_id_is_error() {
        for (text, line) in [
            (
                "1 sort bitvec 1\n2 state 1 a\n2 state 1 b\n3 next 1 2 2\n",
                3,
            ),
            ("1 sort bitvec 1\n1 sort bitvec 2\n", 2),
            ("1 sort bitvec 1\n2 state 1 a\n1 input 1 i\n", 3),
        ] {
            let e = parse_btor2(text).expect_err(text);
            assert_eq!(e.line, line, "{text}: {e}");
            assert!(e.message.contains("already bound"), "{e}");
        }
    }

    #[test]
    fn unsupported_construct_is_error() {
        let text = "1 sort array 2 2\n";
        let e = parse_btor2(text).unwrap_err();
        assert!(e.message.contains("bitvec"));
    }

    /// Widths the `Netlist` builders assert on are errors naming the line
    /// (each case's last).
    #[test]
    fn inconsistent_widths_are_errors_not_panics() {
        let cases = [
            // `and` of an 8-bit and a 4-bit state.
            "1 sort bitvec 8\n2 sort bitvec 4\n3 state 1 a\n4 state 2 b\n5 and 1 3 4\n",
            // `next` of an 8-bit state with a 4-bit value.
            "1 sort bitvec 8\n2 sort bitvec 4\n3 state 1 a\n4 state 2 b\n5 next 1 3 4\n",
            // Bit 20 of an 8-bit state.
            "1 sort bitvec 8\n2 sort bitvec 21\n3 state 1 a\n4 slice 2 3 20 0\n",
            // `uext` to fewer bits.
            "1 sort bitvec 8\n2 sort bitvec 4\n3 state 1 a\n4 uext 2 3 0\n",
            // `uext` by 5 declared 16 bits wide.
            "1 sort bitvec 8\n2 sort bitvec 16\n3 state 1 a\n4 uext 2 3 5\n",
            // 40 + 40 bits.
            "1 sort bitvec 40\n2 sort bitvec 64\n3 state 1 a\n4 concat 2 3 3\n",
            // `eq` declared 8 bits wide.
            "1 sort bitvec 8\n2 state 1 a\n3 eq 1 2 2\n",
            // `not` of an 8-bit state declared 4 bits wide.
            "1 sort bitvec 8\n2 sort bitvec 4\n3 state 1 a\n4 not 2 3\n",
            // `slice [3:0]` declared 8 bits wide.
            "1 sort bitvec 8\n2 state 1 a\n3 slice 1 2 3 0\n",
            // `ite` over 8 bits declared 1 bit wide.
            "1 sort bitvec 8\n2 sort bitvec 1\n3 state 1 a\n4 state 2 c\n5 ite 2 4 3 3\n",
            // Binary 101 in one bit.
            "1 sort bitvec 1\n2 const 1 101\n",
            // 300 in four bits.
            "1 sort bitvec 4\n2 constd 1 300\n",
            // 0x1ff in eight bits.
            "1 sort bitvec 8\n2 consth 1 1ff\n",
        ];
        for text in cases {
            let e = parse_btor2(text).expect_err(text);
            assert_eq!(e.line, text.lines().count(), "{text}: {e}");
        }
        // Of several states without a `next`, the lowest btor id is named.
        let mut text = String::from("1 sort bitvec 1\n");
        for id in (2..40).rev() {
            text.push_str(&format!("{id} state 1 s{id}\n"));
        }
        let e = parse_btor2(&text).expect_err(&text);
        assert!(e.message.contains("btor id 2)"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "; header\n\n1 sort bitvec 1 ; trailing\n2 state 1 r\n3 next 1 2 2\n";
        assert!(parse_btor2(text).is_ok());
    }

    #[test]
    fn roundtrip_preserves_behaviour() {
        // Build a design, write btor2, re-parse, and check both step
        // identically for a few cycles.
        let mut n = Netlist::new("rt");
        let r = n.state("r", 8, crate::bv::Bv::new(8, 5));
        let i = n.input("i", 8);
        let cur = n.state_node(r);
        let two = n.c(8, 2);
        let shifted = n.shl(cur, two);
        let nxt = n.add(shifted, i);
        n.set_next(r, nxt);
        n.add_output("o", cur);
        let text = to_btor2(&n);
        let m = parse_btor2(&text).unwrap();
        assert_eq!(m.num_states(), 1);
        let rm = m.find_state("r").unwrap();
        assert_eq!(m.init_of(rm).bits(), 5);

        let mut sn = StateValues::initial(&n);
        let mut sm = StateValues::initial(&m);
        let mut inputs_n = InputValues::zeros(&n);
        inputs_n.set_by_name(&n, "i", crate::bv::Bv::new(8, 3));
        let mut inputs_m = InputValues::zeros(&m);
        inputs_m.set_by_name(&m, "i", crate::bv::Bv::new(8, 3));
        for _ in 0..5 {
            sn = step(&n, &sn, &inputs_n);
            sm = step(&m, &sm, &inputs_m);
            assert_eq!(sn.get(r), sm.get(rm));
        }
    }

    #[test]
    fn all_operators_roundtrip() {
        let mut n = Netlist::new("ops");
        let a = n.input("a", 8);
        let b = n.input("b", 8);
        let r = n.state("r", 8, crate::bv::Bv::zero(8));
        let pieces = vec![
            n.not(a),
            n.neg(a),
            n.and(a, b),
            n.or(a, b),
            n.xor(a, b),
            n.add(a, b),
            n.sub(a, b),
            n.mul(a, b),
            n.shl(a, b),
            n.lshr(a, b),
            n.ashr(a, b),
        ];
        let red = [
            n.redor(a),
            n.redand(a),
            n.redxor(a),
            n.eq(a, b),
            n.ne(a, b),
            n.ult(a, b),
            n.slt(a, b),
        ];
        let mut acc = pieces[0];
        for &p in &pieces[1..] {
            acc = n.xor(acc, p);
        }
        let mut racc = red[0];
        for &p in &red[1..] {
            racc = n.xor(racc, p);
        }
        let sl = n.slice(acc, 6, 2);
        let ux = n.uext(sl, 8);
        let sx8 = n.sext(racc, 8);
        let cc = n.concat(racc, sl); // 6 bits
        let cc8 = n.uext(cc, 8);
        let t1 = n.xor(acc, ux);
        let t2 = n.xor(sx8, cc8);
        let nxt = n.ite(racc, t1, t2);
        n.set_next(r, nxt);
        n.add_output("o", nxt);

        let text = to_btor2(&n);
        let m = parse_btor2(&text).unwrap();
        let rm = m.find_state("r").unwrap();
        let rn = n.find_state("r").unwrap();
        // Compare a cycle of behaviour on several input pairs.
        for (av, bvv) in [(3u64, 5u64), (0, 255), (128, 127), (200, 200)] {
            let mut in_n = InputValues::zeros(&n);
            in_n.set_by_name(&n, "a", crate::bv::Bv::new(8, av));
            in_n.set_by_name(&n, "b", crate::bv::Bv::new(8, bvv));
            let mut in_m = InputValues::zeros(&m);
            in_m.set_by_name(&m, "a", crate::bv::Bv::new(8, av));
            in_m.set_by_name(&m, "b", crate::bv::Bv::new(8, bvv));
            let sn = step(&n, &StateValues::initial(&n), &in_n);
            let sm = step(&m, &StateValues::initial(&m), &in_m);
            assert_eq!(sn.get(rn), sm.get(rm), "mismatch for a={av} b={bvv}");
        }
    }
}
