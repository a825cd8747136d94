//! Word-level simplification: constant folding and structural hashing.
//!
//! [`SimpMap::build`] runs one forward pass over a netlist's (topologically
//! ordered) node vector and computes a canonical representative for every
//! node:
//!
//! * **constant folding** — a node whose operands all reduce to constants
//!   becomes a [`Repr::Const`];
//! * **algebraic rewrites** — identity/absorption laws (`x & 0`, `x ^ x`,
//!   `ite(c, x, x)`, `x - x`, …) collapse a node onto an operand or a
//!   constant;
//! * **structural hashing (strash)** — two live nodes computing the same
//!   operator over the same representatives share one representative, so
//!   identical subtrees in different next-state cones are encoded once by
//!   the bit-blaster.
//!
//! The pass never mutates the netlist: it is an analysis the blaster
//! consults before CNF generation, which keeps [`crate::NodeId`]s stable
//! for everything else (evaluation, cones of influence, predicate mining).

use std::collections::HashMap;

use crate::bv::Bv;
use crate::netlist::{Netlist, NodeId, NodeOp};

/// Canonical representative of a node after simplification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Repr {
    /// The node always evaluates to this constant.
    Const(Bv),
    /// The node is equivalent to this (representative) node.
    Node(NodeId),
}

/// Counters reported by [`SimpMap::build`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimpStats {
    /// Nodes that folded to a constant.
    pub const_folds: u64,
    /// Nodes collapsed onto an operand or constant by an algebraic rewrite.
    pub rewrites: u64,
    /// Nodes merged with an existing structurally identical node.
    pub strash_hits: u64,
}

/// Strash operand: a representative node or a folded constant. Constants
/// compare by value, so `c(8, 5)` built twice through different node chains
/// still hashes together.
type Operand = Repr;

/// Structural key of a node after operand canonicalisation. The result
/// width is part of the key because extension operators with the same
/// operand differ only in width.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Unary(u8, u32, Operand),
    Binary(u8, u32, Operand, Operand),
    Ite(Operand, Operand, Operand),
    Slice(Operand, u32, u32),
}

/// Result of the per-node analysis before strash.
enum Simplified {
    Const(Bv),
    Operand(Operand),
    Keep(Key),
    /// Inputs and states are always their own representative and never
    /// participate in strash.
    Leader,
}

/// Canonical-representative map for one netlist.
#[derive(Debug)]
pub struct SimpMap {
    repr: Vec<Repr>,
    stats: SimpStats,
}

impl SimpMap {
    /// Analyses `netlist` and returns the representative map.
    pub fn build(netlist: &Netlist) -> SimpMap {
        let mut map = SimpMap {
            repr: Vec::with_capacity(netlist.num_nodes()),
            stats: SimpStats::default(),
        };
        let mut strash: HashMap<Key, NodeId> = HashMap::new();
        for index in 0..netlist.num_nodes() {
            let id = NodeId(index as u32);
            let node = netlist.node(id);
            let repr = match map.analyse(netlist, node.op, node.width) {
                Simplified::Const(bv) => Repr::Const(bv),
                Simplified::Operand(op) => op,
                Simplified::Leader => Repr::Node(id),
                Simplified::Keep(key) => match strash.get(&key) {
                    Some(&leader) => {
                        map.stats.strash_hits += 1;
                        Repr::Node(leader)
                    }
                    None => {
                        strash.insert(key, id);
                        Repr::Node(id)
                    }
                },
            };
            map.repr.push(repr);
        }
        map
    }

    /// The canonical representative of `id`.
    pub fn repr(&self, id: NodeId) -> Repr {
        self.repr[id.index()]
    }

    /// Simplification counters.
    pub fn stats(&self) -> SimpStats {
        self.stats
    }

    fn operand(&self, id: NodeId) -> Operand {
        self.repr[id.index()]
    }

    /// Folds, rewrites or keys one node, with operands already resolved to
    /// their representatives.
    fn analyse(&mut self, netlist: &Netlist, op: NodeOp, width: u32) -> Simplified {
        use NodeOp::*;
        match op {
            Const(bv) => Simplified::Const(bv),
            Input(_) | State(_) => Simplified::Leader,
            Not(a) => match self.operand(a) {
                Repr::Const(x) => self.fold(x.not()),
                r => Simplified::Keep(Key::Unary(2, width, r)),
            },
            Neg(a) => match self.operand(a) {
                Repr::Const(x) => self.fold(x.wrapping_neg()),
                r => Simplified::Keep(Key::Unary(3, width, r)),
            },
            RedOr(a) => self.reduction(netlist, 4, width, a, Bv::redor),
            RedAnd(a) => self.reduction(netlist, 5, width, a, Bv::redand),
            RedXor(a) => self.reduction(netlist, 6, width, a, Bv::redxor),
            And(a, b) => self.binary(7, width, a, b, op),
            Or(a, b) => self.binary(8, width, a, b, op),
            Xor(a, b) => self.binary(9, width, a, b, op),
            Add(a, b) => self.binary(10, width, a, b, op),
            Sub(a, b) => self.binary(11, width, a, b, op),
            Mul(a, b) => self.binary(12, width, a, b, op),
            Eq(a, b) => self.binary(13, width, a, b, op),
            Ult(a, b) => self.binary(14, width, a, b, op),
            Slt(a, b) => self.binary(15, width, a, b, op),
            Shl(a, b) => self.binary(16, width, a, b, op),
            Lshr(a, b) => self.binary(17, width, a, b, op),
            Ashr(a, b) => self.binary(18, width, a, b, op),
            Ite(c, t, e) => {
                let (rc, rt, re) = (self.operand(c), self.operand(t), self.operand(e));
                if let Repr::Const(cv) = rc {
                    self.rewrite_to(if cv.is_true() { rt } else { re })
                } else if rt == re {
                    self.rewrite_to(rt)
                } else {
                    Simplified::Keep(Key::Ite(rc, rt, re))
                }
            }
            Concat(hi, lo) => match (self.operand(hi), self.operand(lo)) {
                (Repr::Const(h), Repr::Const(l)) => self.fold(h.concat(l)),
                (rh, rl) => Simplified::Keep(Key::Binary(19, width, rh, rl)),
            },
            Slice(a, hi, lo) => match self.operand(a) {
                Repr::Const(x) => self.fold(x.slice(hi, lo)),
                r => Simplified::Keep(Key::Slice(r, hi, lo)),
            },
            Uext(a) => match self.operand(a) {
                Repr::Const(x) => self.fold(x.uext(width)),
                r => Simplified::Keep(Key::Unary(20, width, r)),
            },
            Sext(a) => match self.operand(a) {
                Repr::Const(x) => self.fold(x.sext(width)),
                r => Simplified::Keep(Key::Unary(21, width, r)),
            },
        }
    }

    fn fold(&mut self, bv: Bv) -> Simplified {
        self.stats.const_folds += 1;
        Simplified::Const(bv)
    }

    fn rewrite_to(&mut self, r: Operand) -> Simplified {
        self.stats.rewrites += 1;
        Simplified::Operand(r)
    }

    fn rewrite_const(&mut self, bv: Bv) -> Simplified {
        self.stats.rewrites += 1;
        Simplified::Const(bv)
    }

    /// Reductions fold on constants and are the identity on 1-bit operands.
    fn reduction(
        &mut self,
        netlist: &Netlist,
        tag: u8,
        width: u32,
        a: NodeId,
        f: impl Fn(Bv) -> Bv,
    ) -> Simplified {
        match self.operand(a) {
            Repr::Const(x) => self.fold(f(x)),
            Repr::Node(n) if netlist.width(n) == 1 => self.rewrite_to(Repr::Node(n)),
            r => Simplified::Keep(Key::Unary(tag, width, r)),
        }
    }

    /// Shared handling for two-operand operators: fold when both sides are
    /// constants, apply identity/absorption rewrites when one side is, and
    /// canonicalise commutative operand order for strash.
    fn binary(&mut self, tag: u8, width: u32, a: NodeId, b: NodeId, op: NodeOp) -> Simplified {
        use NodeOp::*;
        let ra = self.operand(a);
        let rb = self.operand(b);
        if let (Repr::Const(x), Repr::Const(y)) = (ra, rb) {
            let v = match op {
                And(..) => x.and(y),
                Or(..) => x.or(y),
                Xor(..) => x.xor(y),
                Add(..) => x.wrapping_add(y),
                Sub(..) => x.wrapping_sub(y),
                Mul(..) => x.wrapping_mul(y),
                Eq(..) => x.eq_bit(y),
                Ult(..) => x.ult(y),
                Slt(..) => x.slt(y),
                Shl(..) => x.shl(y),
                Lshr(..) => x.lshr(y),
                Ashr(..) => x.ashr(y),
                _ => unreachable!("binary() called on non-binary op"),
            };
            return self.fold(v);
        }
        // Equal representatives.
        if ra == rb {
            match op {
                And(..) | Or(..) => return self.rewrite_to(ra),
                Xor(..) | Sub(..) => return self.rewrite_const(Bv::zero(width)),
                Eq(..) => return self.rewrite_const(Bv::bit(true)),
                Ult(..) | Slt(..) => return self.rewrite_const(Bv::bit(false)),
                _ => {}
            }
        }
        // One constant operand: identity / absorption laws.
        for (c, other, const_is_lhs) in [(ra, rb, true), (rb, ra, false)] {
            let Repr::Const(cv) = c else { continue };
            let zero = cv.bits() == 0;
            let ones = cv == Bv::ones(cv.width());
            match op {
                And(..) if zero => return self.rewrite_const(Bv::zero(width)),
                And(..) if ones => return self.rewrite_to(other),
                Or(..) if zero => return self.rewrite_to(other),
                Or(..) if ones => return self.rewrite_const(Bv::ones(width)),
                Xor(..) if zero => return self.rewrite_to(other),
                Add(..) if zero => return self.rewrite_to(other),
                Mul(..) if zero => return self.rewrite_const(Bv::zero(width)),
                Mul(..) if cv.bits() == 1 => return self.rewrite_to(other),
                // x - 0 = x; 0 is the right operand.
                Sub(..) if zero && !const_is_lhs => return self.rewrite_to(other),
                // x << 0, x >> 0: shift amount is the right operand.
                Shl(..) | Lshr(..) | Ashr(..) if zero && !const_is_lhs => {
                    return self.rewrite_to(other)
                }
                // Shifting past the width zeroes logical shifts.
                Shl(..) | Lshr(..) if !const_is_lhs && cv.bits() >= u64::from(width) => {
                    return self.rewrite_const(Bv::zero(width))
                }
                _ => {}
            }
        }
        // Canonical operand order for commutative operators.
        let (ka, kb) = match op {
            And(..) | Or(..) | Xor(..) | Add(..) | Mul(..) | Eq(..) if rb < ra => (rb, ra),
            _ => (ra, rb),
        };
        Simplified::Keep(Key::Binary(tag, width, ka, kb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_all, InputValues, StateValues};

    #[test]
    fn constants_fold_through_operators() {
        let mut n = Netlist::new("t");
        let a = n.c(8, 12);
        let b = n.c(8, 5);
        let sum = n.add(a, b);
        let shifted = n.shl(sum, b);
        let map = SimpMap::build(&n);
        assert_eq!(map.repr(sum), Repr::Const(Bv::new(8, 17)));
        assert_eq!(map.repr(shifted), Repr::Const(Bv::new(8, (17 << 5) & 0xff)));
        assert!(map.stats().const_folds >= 2);
    }

    #[test]
    fn algebraic_rewrites_collapse_identities() {
        let mut n = Netlist::new("t");
        let x = n.input("x", 8);
        let zero = n.c(8, 0);
        let ones = n.c(8, 0xff);
        let and0 = n.and(x, zero);
        let and1 = n.and(x, ones);
        let xorxx = n.xor(x, x);
        let subxx = n.sub(x, x);
        let eqxx = n.eq(x, x);
        let add0 = n.add(zero, x);
        let map = SimpMap::build(&n);
        assert_eq!(map.repr(and0), Repr::Const(Bv::zero(8)));
        assert_eq!(map.repr(and1), Repr::Node(x));
        assert_eq!(map.repr(xorxx), Repr::Const(Bv::zero(8)));
        assert_eq!(map.repr(subxx), Repr::Const(Bv::zero(8)));
        assert_eq!(map.repr(eqxx), Repr::Const(Bv::bit(true)));
        assert_eq!(map.repr(add0), Repr::Node(x));
        assert!(map.stats().rewrites >= 5);
    }

    #[test]
    fn ite_with_constant_condition_or_equal_branches() {
        let mut n = Netlist::new("t");
        let x = n.input("x", 4);
        let y = n.input("y", 4);
        let t = n.ctrue();
        let picked = n.ite(t, x, y);
        let c = n.input("c", 1);
        let same = n.ite(c, y, y);
        let map = SimpMap::build(&n);
        assert_eq!(map.repr(picked), Repr::Node(x));
        assert_eq!(map.repr(same), Repr::Node(y));
    }

    #[test]
    fn strash_merges_structurally_identical_cones() {
        // The builder hash-conses syntactically identical expressions, so
        // build the duplicates through *different* routes that only become
        // identical after rewriting.
        let mut n = Netlist::new("t");
        let x = n.input("x", 8);
        let y = n.input("y", 8);
        let zero = n.c(8, 0);
        let x1 = n.add(x, zero); // rewrites to x
        let s1 = n.and(x, y);
        let s2 = n.and(x1, y); // structurally And(x, y) after rewrite
        assert_ne!(s1, s2, "builder must not already share these");
        let map = SimpMap::build(&n);
        assert_eq!(map.repr(s2), Repr::Node(s1));
        assert_eq!(map.stats().strash_hits, 1);
    }

    #[test]
    fn commutative_operands_share_a_key() {
        let mut n = Netlist::new("t");
        let x = n.input("x", 8);
        let y = n.input("y", 8);
        let zero = n.c(8, 0);
        let y1 = n.add(y, zero); // y, via a rewrite, so builder can't dedup
        let a = n.and(x, y);
        let b = n.and(y1, x);
        assert_ne!(a, b);
        let map = SimpMap::build(&n);
        assert_eq!(map.repr(b), Repr::Node(a));
    }

    #[test]
    fn representatives_agree_with_evaluation() {
        // Every node's representative must evaluate to the same value as
        // the node itself.
        let mut n = Netlist::new("t");
        let s = n.state("s", 8, Bv::new(8, 3));
        let sn = n.state_node(s);
        let x = n.input("x", 8);
        let zero = n.c(8, 0);
        let five = n.c(8, 5);
        let six = n.c(8, 6);
        let a = n.add(sn, x);
        let b = n.add(sn, zero);
        let c1 = n.xor(a, b);
        let folded = n.mul(five, six);
        let gated = n.and(c1, folded);
        let cond = n.eq(sn, sn);
        let picked = n.ite(cond, gated, x);
        n.set_next(s, picked);
        let map = SimpMap::build(&n);
        let states = StateValues::from_vec(vec![Bv::new(8, 3)]);
        let mut inputs = InputValues::zeros(&n);
        inputs.set_by_name(&n, "x", Bv::new(8, 0x5a));
        let vals = eval_all(&n, &states, &inputs);
        for i in 0..n.num_nodes() {
            let id = NodeId(i as u32);
            match map.repr(id) {
                Repr::Const(bv) => assert_eq!(bv, vals[i], "node {i} folded wrong"),
                Repr::Node(r) => {
                    assert_eq!(
                        vals[r.index()],
                        vals[i],
                        "node {i} merged with non-equal {r:?}"
                    )
                }
            }
        }
    }
}
