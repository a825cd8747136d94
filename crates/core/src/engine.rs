//! The H-Houdini algorithm (Algorithm 1 of the paper), serial reference
//! implementation.
//!
//! For a target predicate `p` the engine:
//!
//! 1. returns the memoised solution if one exists and none of its members
//!    has since failed (line 3),
//! 2. otherwise mines candidates over the 1-step cone (`O_slice`+`O_mine`),
//!    removes known-failed predicates (line 11), and asks the abduction
//!    oracle for an abduct (line 12),
//! 3. recursively solves every abduct member (line 18), backtracking to a
//!    new abduct when a member fails (lines 20–23) — the failed member joins
//!    `P_fail`, so the re-query is over a strictly smaller candidate set,
//! 4. composes the final invariant from the memoised hierarchy of abducts —
//!    never issuing a monolithic inductivity query (§3.1).
//!
//! Cycles through the design's backedges resolve via the in-progress set:
//! a target already on the solving path is treated as pending-solved, and
//! the stale-entry sweep in [`SerialEngine::learn`] re-solves anything whose
//! abduct later intersects `P_fail` (§3.2.2).

use crate::invariant::closure;
use crate::mine::Miner;
use crate::store::{PredId, PredicateStore};
use crate::{Invariant, Stats, TaskRecord};
use hh_netlist::Netlist;
use hh_smt::{AbductionConfig, AbductionSession, EncodeCache, Predicate};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Per-target cache of live abduction sessions, owned by an engine and (in
/// the parallel engine) handed to workers with the job and returned with
/// the result. A session is *parked* here between its queries; dropping it
/// frees its solver.
#[derive(Debug, Default)]
pub(crate) struct SessionCache<'a> {
    parked: HashMap<PredId, AbductionSession<'a>>,
    /// Sum of [`AbductionSession::resident_bytes`] over `parked`.
    resident_bytes: u64,
    /// High-water mark of `resident_bytes`.
    peak_resident_bytes: u64,
}

impl<'a> SessionCache<'a> {
    pub(crate) fn new() -> SessionCache<'a> {
        SessionCache::default()
    }

    /// Takes `target`'s session out for its next query, if it has one.
    pub(crate) fn take(&mut self, target: PredId) -> Option<AbductionSession<'a>> {
        let session = self.parked.remove(&target)?;
        self.resident_bytes -= session.resident_bytes();
        Some(session)
    }

    /// Parks `target`'s session until its next query or the end of the run.
    pub(crate) fn park(&mut self, target: PredId, session: AbductionSession<'a>) {
        self.resident_bytes += session.resident_bytes();
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
        let displaced = self.parked.insert(target, session);
        debug_assert!(displaced.is_none(), "a target has one session");
    }

    /// The most bytes the parked sessions ever held together.
    pub(crate) fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident_bytes
    }

    /// Frees every parked session (the peak is kept).
    pub(crate) fn clear(&mut self) {
        self.parked.clear();
        self.resident_bytes = 0;
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Abduction query configuration (core minimisation, encoding scope).
    pub abduction: AbductionConfig,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            abduction: AbductionConfig::paper_default(),
        }
    }
}

/// The serial H-Houdini engine.
#[derive(Debug)]
pub struct SerialEngine<'a, M: Miner> {
    netlist: &'a Netlist,
    miner: M,
    config: EngineConfig,
    store: PredicateStore,
    /// Memoised solutions: target -> abduct (line 13).
    memo: HashMap<PredId, Vec<PredId>>,
    /// `P_fail`: predicates proven to have no solution.
    failed: HashSet<PredId>,
    in_progress: Vec<PredId>,
    /// Live abduction sessions, keyed by target (§3.2.4): retries (after
    /// `P_fail` grows or a stale solution is swept) re-solve incrementally
    /// instead of re-blasting the cone.
    sessions: SessionCache<'a>,
    stats: Stats,
}

impl<'a, M: Miner> SerialEngine<'a, M> {
    /// Creates an engine over a product netlist.
    pub fn new(netlist: &'a Netlist, miner: M, config: EngineConfig) -> SerialEngine<'a, M> {
        SerialEngine {
            netlist,
            miner,
            config,
            store: PredicateStore::new(),
            memo: HashMap::new(),
            failed: HashSet::new(),
            in_progress: Vec::new(),
            sessions: SessionCache::new(),
            stats: Stats::default(),
        }
    }

    /// Telemetry of the most recent [`SerialEngine::learn`] call.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The predicate store (inspectable after a run).
    pub fn store(&self) -> &PredicateStore {
        &self.store
    }

    /// The memoised solution table as `(target, premises)` pairs, sorted by
    /// target predicate. Each entry records the abduct that made `target`
    /// relatively inductive; `hh-proof` replays these obligations when
    /// emitting a certificate bundle.
    pub fn solutions(&self) -> Vec<(Predicate, Vec<Predicate>)> {
        let mut out: Vec<(Predicate, Vec<Predicate>)> = self
            .memo
            .iter()
            .map(|(&p, ab)| (self.store.get(p).clone(), self.store.resolve(ab)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The predicates proven unsolvable (`P_fail`) — useful diagnostics:
    /// every backtrack traces to one of these.
    pub fn failed_preds(&self) -> Vec<PredId> {
        let mut v: Vec<PredId> = self.failed.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Learns an inductive invariant proving every predicate in
    /// `properties`, or returns `None` if some property has no invariant
    /// within the predicate language.
    pub fn learn(&mut self, properties: &[Predicate]) -> Option<Invariant> {
        let t0 = Instant::now();
        let _learn_span = hh_trace::span!("engine", "engine.learn");
        self.stats.workers = 1;
        // Signature-equal targets replay each other's base encodings.
        let encode_cache = Arc::new(EncodeCache::new(self.netlist));
        let prop_ids: Vec<PredId> = properties
            .iter()
            .map(|p| self.store.intern(p.clone()))
            .collect();
        let result = 'outer: loop {
            for &p in &prop_ids {
                if !self.solve(p, None, &encode_cache) {
                    break 'outer None;
                }
            }
            // Sweep stale entries: solutions that reference predicates which
            // have since failed must be re-synthesised (§3.2.2). `P_fail`
            // only grows, so this converges.
            let stale: Vec<PredId> = self
                .memo
                .iter()
                .filter(|(_, ab)| ab.iter().any(|q| self.failed.contains(q)))
                .map(|(&p, _)| p)
                .collect();
            if stale.is_empty() {
                break Some(self.assemble(&prop_ids));
            }
            for s in stale {
                self.memo.remove(&s);
            }
        };
        self.stats
            .record_run_end(&encode_cache, self.sessions.peak_resident_bytes());
        self.stats.wall_time = t0.elapsed();
        // Sessions (and the encode cache) only pay off within one learning
        // run; free the solvers and recorded encodings.
        self.sessions.clear();
        result
    }

    /// Collects the transitive closure of memoised abducts from the
    /// property predicates — the composed invariant `H = ⋀ H_i`.
    fn assemble(&self, props: &[PredId]) -> Invariant {
        let ids: Vec<PredId> = closure(props.iter().copied(), |p| {
            let ab = self.memo.get(&p)?;
            debug_assert!(ab.iter().all(|q| !self.failed.contains(q)));
            Some(ab.iter().copied())
        })
        .expect("assembled predicate must have a solution")
        .into_iter()
        .collect();
        Invariant::new(self.store.resolve(&ids))
    }

    /// Algorithm 1 for one target. Returns whether a solution exists.
    fn solve(&mut self, p: PredId, parent: Option<usize>, encode_cache: &Arc<EncodeCache>) -> bool {
        if self.failed.contains(&p) {
            return false;
        }
        if self.in_progress.contains(&p) {
            // Cycle through a backedge: use the pending solution (§3.2.2).
            return true;
        }
        if let Some(ab) = self.memo.get(&p) {
            if ab.iter().all(|q| !self.failed.contains(q)) {
                self.stats.memo_hits += 1;
                hh_trace::counter!("engine", "engine.memo.hit", 1);
                return true; // line 3–4
            }
            self.memo.remove(&p);
        }
        self.in_progress.push(p);
        let _task_span = hh_trace::span!("engine", "engine.task");
        let task_idx = self.stats.tasks.len();
        self.stats.tasks.push(TaskRecord {
            pred: p,
            parent,
            duration: std::time::Duration::ZERO,
            smt_time: std::time::Duration::ZERO,
            queries: 0,
        });
        let mut own_mark = Instant::now();
        let mut first_attempt = true;

        let outcome = loop {
            // Lines 9–11: slice, mine, subtract P_fail.
            let target = self.store.get_arc(p);
            let mut cand_ids = self.miner.mine(&target, &mut self.store);
            cand_ids.sort_unstable();
            cand_ids.dedup();
            cand_ids.retain(|q| !self.failed.contains(q));
            let cands = self.store.resolve(&cand_ids);

            // Line 12: O_abduct, through the target's live session.
            let q0 = Instant::now();
            let mut session = self.sessions.take(p).unwrap_or_else(|| {
                AbductionSession::with_cache(
                    self.netlist,
                    target,
                    self.config.abduction,
                    Arc::clone(encode_cache),
                    true,
                )
            });
            let res = session.solve(&cands);
            let qd = q0.elapsed();
            self.stats.record_query(qd);
            self.stats.record_abduction(&res.telemetry);
            self.stats.tasks[task_idx].smt_time += qd;
            self.stats.tasks[task_idx].queries += 1;
            if !first_attempt {
                self.stats.backtracks += 1;
                hh_trace::counter!("engine", "engine.backtrack", 1);
            }
            first_attempt = false;

            match res.abduct {
                None => {
                    // Lines 14–16. A failed target is never queried again,
                    // so its session is dropped rather than parked.
                    self.failed.insert(p);
                    self.memo.remove(&p);
                    break false;
                }
                Some(idxs) => {
                    self.sessions.park(p, session);
                    let ab: Vec<PredId> = idxs.into_iter().map(|i| cand_ids[i]).collect();
                    // Line 13: memoise before recursing so cycles see the
                    // pending solution.
                    self.memo.insert(p, ab.clone());
                    // Lines 18–26.
                    let mut ok = true;
                    for q in ab {
                        // Pause own-time accounting across the recursion.
                        self.stats.tasks[task_idx].duration += own_mark.elapsed();
                        let solved = self.solve(q, Some(task_idx), encode_cache);
                        own_mark = Instant::now();
                        if !solved {
                            self.failed.insert(q);
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        break true;
                    }
                    // Retry loop: the failed member is now in P_fail, so the
                    // next mining round offers a strictly smaller universe.
                }
            }
        };
        self.stats.tasks[task_idx].duration += own_mark.elapsed();
        self.stats.task_time += self.stats.tasks[task_idx].duration;
        self.stats.worker_busy_time += self.stats.tasks[task_idx].duration;
        debug_assert_eq!(self.in_progress.last(), Some(&p));
        self.in_progress.pop();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine::CoiMiner;
    use hh_netlist::eval::StateValues;
    use hh_netlist::miter::Miter;
    use hh_netlist::{Bv, Netlist};

    /// The paper's intro example: A <= B & C; B, C hold.
    fn and_gate() -> (Netlist, Miter) {
        let mut n = Netlist::new("and_gate");
        let b = n.state("B", 1, Bv::bit(true));
        let c = n.state("C", 1, Bv::bit(true));
        let a = n.state("A", 1, Bv::bit(true));
        let band = n.and(n.state_node(b), n.state_node(c));
        n.set_next(a, band);
        n.keep_state(b);
        n.keep_state(c);
        let m = Miter::build(&n);
        (n, m)
    }

    fn all_ones_example(m: &Miter) -> StateValues {
        let mut s = StateValues::initial(m.netlist());
        for b in m.base_state_ids() {
            s.set(m.left(b), Bv::bit(true));
            s.set(m.right(b), Bv::bit(true));
        }
        s
    }

    #[test]
    fn learns_and_gate_invariant() {
        let (base, m) = and_gate();
        let examples = vec![all_ones_example(&m)];
        let miner = CoiMiner::new(&m, &examples, None, vec![]);
        let mut eng = SerialEngine::new(m.netlist(), miner, EngineConfig::default());
        let a = base.find_state("A").unwrap();
        let prop = Predicate::eq(m.left(a), m.right(a));
        let inv = eng
            .learn(std::slice::from_ref(&prop))
            .expect("invariant exists");
        // Eq(A), Eq(B), Eq(C) (possibly with EqConst variants).
        assert!(inv.contains(&prop));
        assert!(inv.len() >= 3);
        // Correct-by-construction claim, checked monolithically.
        assert!(inv.verify_monolithic(m.netlist()));
        // Invariant admits the positive example (precision witness).
        assert!(inv.holds_on(&examples[0]));
        assert!(eng.stats().num_tasks() >= 3);
        assert_eq!(eng.stats().backtracks, 0);
    }

    /// A design where the property is unprovable: r' = r + secret-dependent
    /// divergence. Eq(target) over a register fed by a diverging register
    /// whose examples differ.
    #[test]
    fn fails_when_no_invariant_exists() {
        let mut n = Netlist::new("leak");
        let s = n.state("secret", 4, Bv::zero(4));
        let o = n.state("obs", 4, Bv::zero(4));
        let sn = n.state_node(s);
        n.keep_state(s);
        n.set_next(o, sn); // observable copies the secret
        let m = Miter::build(&n);
        // Example where the secret differs between sides.
        let mut e = StateValues::initial(m.netlist());
        let sb = n.find_state("secret").unwrap();
        e.set(m.left(sb), Bv::new(4, 1));
        e.set(m.right(sb), Bv::new(4, 2));
        let ob = n.find_state("obs").unwrap();
        e.set(m.left(ob), Bv::new(4, 0));
        e.set(m.right(ob), Bv::new(4, 0));
        let miner = CoiMiner::new(&m, &[e], None, vec![]);
        let mut eng = SerialEngine::new(m.netlist(), miner, EngineConfig::default());
        let prop = Predicate::eq(m.left(ob), m.right(ob));
        assert!(eng.learn(&[prop]).is_none());
    }

    /// Cyclic dependency (two registers swapping) must terminate and solve.
    #[test]
    fn handles_cycles() {
        let mut n = Netlist::new("swap");
        let x = n.state("x", 4, Bv::zero(4));
        let y = n.state("y", 4, Bv::zero(4));
        let xn = n.state_node(x);
        let yn = n.state_node(y);
        n.set_next(x, yn);
        n.set_next(y, xn);
        let m = Miter::build(&n);
        let mut e = StateValues::initial(m.netlist());
        let _ = &mut e; // zeros everywhere: x=y=0 both sides
        let miner = CoiMiner::new(&m, &[e], None, vec![]);
        let mut eng = SerialEngine::new(m.netlist(), miner, EngineConfig::default());
        let xb = n.find_state("x").unwrap();
        let prop = Predicate::eq(m.left(xb), m.right(xb));
        let inv = eng.learn(&[prop]).expect("swap network is provable");
        assert!(inv.verify_monolithic(m.netlist()));
        assert!(inv.len() >= 2); // Eq(x) and Eq(y)
    }

    /// Backtracking: a mux register can be proven equal either via its
    /// selected input (which fails) or via pinning the selector. Mirrors
    /// Figure 1 / the Appendix C backtrack.
    #[test]
    fn backtracks_to_alternative_solution() {
        let mut n = Netlist::new("bt");
        // sel holds 0 forever; out' = sel ? secret : pub; pub/secret hold.
        let sel = n.state("sel", 1, Bv::bit(false));
        let secret = n.state("secret", 4, Bv::zero(4));
        let publ = n.state("pub", 4, Bv::zero(4));
        let out = n.state("out", 4, Bv::zero(4));
        n.keep_state(sel);
        n.keep_state(secret);
        n.keep_state(publ);
        let seln = n.state_node(sel);
        let secn = n.state_node(secret);
        let pubn = n.state_node(publ);
        let muxed = n.ite(seln, secn, pubn);
        n.set_next(out, muxed);
        let m = Miter::build(&n);
        // Example: secrets differ; sel = 0; pub equal; out equal.
        let mut e = StateValues::initial(m.netlist());
        let sb = n.find_state("secret").unwrap();
        e.set(m.left(sb), Bv::new(4, 3));
        e.set(m.right(sb), Bv::new(4, 9));
        let miner = CoiMiner::new(&m, &[e], None, vec![]);
        let mut eng = SerialEngine::new(m.netlist(), miner, EngineConfig::default());
        let ob = n.find_state("out").unwrap();
        let prop = Predicate::eq(m.left(ob), m.right(ob));
        let inv = eng.learn(&[prop]).expect("provable via EqConst(sel,0)");
        assert!(inv.verify_monolithic(m.netlist()));
        // The invariant must pin the selector, not the secret.
        let selb = n.find_state("sel").unwrap();
        let pin = Predicate::eq_const(m.left(selb), m.right(selb), Bv::bit(false));
        let eq_sel = Predicate::eq(m.left(selb), m.right(selb));
        assert!(inv.contains(&pin) || inv.contains(&eq_sel));
        let eq_secret = Predicate::eq(m.left(sb), m.right(sb));
        assert!(!inv.contains(&eq_secret));
    }

    #[test]
    fn memoization_avoids_rework() {
        // Diamond: t' = l XOR r, where l and r both copy the shared upstream
        // register. Eq(t) needs Eq(l) AND Eq(r), and both reduce to Eq(up) —
        // which must only be analysed once (paper §3.2.1 overlap argument).
        let mut n = Netlist::new("diamond");
        let up = n.state("up", 1, Bv::bit(false));
        let l = n.state("l", 1, Bv::bit(false));
        let r = n.state("r", 1, Bv::bit(false));
        let t = n.state("t", 1, Bv::bit(false));
        n.keep_state(up);
        let un = n.state_node(up);
        n.set_next(l, un);
        n.set_next(r, un);
        let ln = n.state_node(l);
        let rn = n.state_node(r);
        let bxor = n.xor(ln, rn);
        n.set_next(t, bxor);
        let m = Miter::build(&n);
        // Two examples with different values so no EqConst is minable and
        // the shared Eq(up) predicate is forced.
        let e0 = StateValues::initial(m.netlist());
        let mut e1 = StateValues::initial(m.netlist());
        for name in ["up", "l", "r"] {
            let s = n.find_state(name).unwrap();
            e1.set(m.left(s), Bv::bit(true));
            e1.set(m.right(s), Bv::bit(true));
        }
        let miner = CoiMiner::new(&m, &[e0, e1], None, vec![]);
        let mut eng = SerialEngine::new(m.netlist(), miner, EngineConfig::default());
        let tb = n.find_state("t").unwrap();
        let prop = Predicate::eq(m.left(tb), m.right(tb));
        let inv = eng.learn(&[prop]).expect("diamond provable");
        assert!(inv.verify_monolithic(m.netlist()));
        let upb = n.find_state("up").unwrap();
        assert!(inv.contains(&Predicate::eq(m.left(upb), m.right(upb))));
        // `up` is in the cone of both l and r; the second visit must be a
        // memo hit rather than a new task.
        assert!(
            eng.stats().memo_hits >= 1,
            "hits: {}",
            eng.stats().memo_hits
        );
        assert_eq!(eng.stats().num_tasks(), 4); // t, l, r, up — up only once
    }
}
