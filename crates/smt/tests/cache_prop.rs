//! Property tests for the cross-target encoding cache: replaying a cached
//! base encoding into a signature-equal session must be indistinguishable
//! from blasting it fresh — same abducts, same variable/clause allocation.

use hh_netlist::{Bv, Netlist, NodeId, StateId};
use hh_smt::query::{abduct, AbductionConfig};
use hh_smt::{AbductionSession, EncodeCache, Predicate};
use std::sync::Arc;

/// Deterministic xorshift64* PRNG (no external deps).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn apply_op(n: &mut Netlist, pool: &mut Vec<NodeId>, op: u64, a: u64, b: u64) {
    let x = pool[(a as usize) % pool.len()];
    let y = pool[(b as usize) % pool.len()];
    let w = n.width(x).max(n.width(y));
    let xe = n.uext(x, w);
    let ye = n.uext(y, w);
    let node = match op % 6 {
        0 => n.and(xe, ye),
        1 => n.or(xe, ye),
        2 => n.xor(xe, ye),
        3 => n.add(xe, ye),
        4 => n.not(xe),
        _ => {
            let c = n.redor(ye);
            n.ite(c, xe, ye)
        }
    };
    pool.push(node);
}

/// Builds `groups` twin groups; groups with even index share recipe 0,
/// groups with odd index share recipe 1, so `Eq(p_i, q_i)` targets of
/// same-parity groups are signature-equal (renamed copies), and
/// `(target, candidates)` pairs exercise both the miss and the hit path.
struct TwinDesign {
    netlist: Netlist,
    /// Per group: (p, q, aux).
    groups: Vec<(StateId, StateId, StateId)>,
}

fn build(rng: &mut Rng, groups: usize) -> TwinDesign {
    let mut n = Netlist::new("cacheprop");
    let recipes: Vec<Vec<(u64, u64, u64)>> = (0..2)
        .map(|_| {
            (0..1 + rng.below(4))
                .map(|_| (rng.next(), rng.next(), rng.next()))
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    for g in 0..groups {
        let w = 4u32;
        let p = n.state(format!("p{g}"), w, Bv::zero(w));
        let q = n.state(format!("q{g}"), w, Bv::zero(w));
        let aux = n.state(format!("a{g}"), w, Bv::zero(w));
        n.keep_state(aux);
        let auxn = n.state_node(aux);
        let recipe = &recipes[g % 2];
        for &s in &[p, q] {
            let own = n.state_node(s);
            let mut pool = vec![own, auxn];
            for &(op, a, b) in recipe {
                apply_op(&mut n, &mut pool, op, a, b);
            }
            let last = *pool.last().unwrap();
            let nxt = if n.width(last) >= w {
                n.slice(last, w - 1, 0)
            } else {
                n.uext(last, w)
            };
            n.set_next(s, nxt);
        }
        out.push((p, q, aux));
    }
    TwinDesign {
        netlist: n,
        groups: out,
    }
}

/// Target and candidate set for group `g`: prove `Eq(p, q)` from
/// `{Eq(aux, aux'), Eq(p, q)}`-style candidates over neighbouring groups.
fn query_for(d: &TwinDesign, g: usize) -> (Predicate, Vec<Predicate>) {
    let (p, q, aux) = d.groups[g];
    let target = Predicate::eq(p, q);
    let mut cands = vec![Predicate::eq(aux, aux)];
    for &(op, oq, oa) in &d.groups {
        cands.push(Predicate::eq(op, oq));
        cands.push(Predicate::eq(oa, oa));
    }
    cands.retain(|c| c != &target);
    cands.dedup();
    (target, cands)
}

#[test]
fn replayed_encodings_answer_like_fresh_sessions() {
    let mut rng = Rng::new(0xdead_beef_cafe_f00d);
    for _trial in 0..10 {
        let groups = 2 + rng.below(3) as usize * 2;
        let d = build(&mut rng, groups);
        let cfg = AbductionConfig::paper_default();
        let cache = Arc::new(EncodeCache::new(&d.netlist));

        for g in 0..d.groups.len() {
            let (target, cands) = query_for(&d, g);
            let mut cached = AbductionSession::with_cache(
                &d.netlist,
                target.clone(),
                cfg,
                Arc::clone(&cache),
                true,
            );
            let hits = cache.stats().hits;
            let rc = cached.solve(&cands);
            if g >= 2 {
                // Same-parity earlier group populated this signature.
                assert_eq!(cache.stats().hits, hits + 1, "expected replay at group {g}");
            }
            // The reference is a plain fresh session — identical netlist,
            // identical query, no cache.
            let rf = abduct(&d.netlist, &target, &cands, &cfg);
            assert_eq!(rc.abduct, rf.abduct, "cache changed an abduct");
            // Replay is byte-identical to a fresh build: the per-query
            // allocation telemetry must agree on both paths.
            assert_eq!(rc.telemetry.vars, rf.telemetry.vars);
            assert_eq!(rc.telemetry.clauses, rf.telemetry.clauses);
            // So is blasting fresh over the cache's shared SimpMap
            // (`use_entries` off): no lookup, no recording.
            let before = cache.stats();
            let rs = AbductionSession::with_cache(
                &d.netlist,
                target.clone(),
                cfg,
                Arc::clone(&cache),
                false,
            )
            .solve(&cands);
            assert_eq!(rs.abduct, rc.abduct);
            assert_eq!(rs.telemetry.vars, rc.telemetry.vars);
            assert_eq!(rs.telemetry.clauses, rc.telemetry.clauses);
            assert_eq!(cache.stats(), before);
        }
        // At most one miss per recipe parity (fewer if the two random
        // recipes happen to simplify to the same cone), everything else a
        // replay.
        let stats = cache.stats();
        assert!(stats.misses <= 2, "misses: {}", stats.misses);
        assert!(stats.hits as usize >= d.groups.len() - 2);
        assert_eq!(stats.hits + stats.misses, d.groups.len() as u64);
    }
}
