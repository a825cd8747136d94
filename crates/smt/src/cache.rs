//! Cross-target encoding cache.
//!
//! Real designs are full of structurally identical 1-step cones (replicated
//! pipeline registers, per-entry queue slots, miter left/right symmetry).
//! Each such cone bit-blasts to the *same* CNF — the traversal in
//! [`crate::TransitionEncoding`] is a pure function of post-`SimpMap`
//! structure — so blasting it once per target is wasted work. An
//! [`EncodeCache`] shared by every [`crate::AbductionSession`] of a learn run
//! fixes that:
//!
//! * **Encoding replay.** The first session to build a given cone shape
//!   records its base encoding — the ordered clause stream plus the
//!   state/input literal tables and gate hash-cons caches — keyed by the
//!   cone's [`ConeSignature`]. Signature-equal targets *replay* that record
//!   into their fresh solver instead of re-running Tseitin. A record is flat
//!   buffers (literals and row ends), not a heap block per clause, and holds
//!   no per-node table: nothing reads one after a replay (candidates encode
//!   over current-state literals, and a node asked for again is re-derived
//!   from them).
//! * **Identity renaming.** Every session starts from an empty solver, and
//!   the blaster allocates variables in traversal order, so signature-equal
//!   cones receive *identical* variable numbering. Replay therefore needs no
//!   renaming arithmetic, and — crucially for reproducibility — a cache hit
//!   yields a solver state byte-identical to the one a miss would have
//!   built. Learned invariants cannot depend on whether an encoding was
//!   replayed or on which thread populated an entry first; only the
//!   telemetry differs.
//!
//! The cache is engine-lifetime shared state behind plain [`Mutex`]es: entry
//! construction happens off-lock, the critical sections are map lookups and
//! inserts.

use crate::cnf::{map_bytes, vec_bytes, GateCache, LitRows};
use crate::pred::Predicate;
use hh_netlist::signature::{ConeSignature, SigBuilder};
use hh_netlist::simp::SimpMap;
use hh_netlist::{Netlist, StateId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// Caller-level tokens for predicate shape; disjoint from the structural tags
// used inside `SigBuilder` so the streams cannot alias.
const TOK_CONSTRAINT: u64 = 101;
const TOK_ASSERT_NOW: u64 = 103;
const TOK_ASSERT_NEXT: u64 = 104;
const TOK_EQ: u64 = 105;
const TOK_EQC: u64 = 106;
const TOK_INSET: u64 = 107;
const TOK_IMPL: u64 = 108;
const TOK_CUR: u64 = 109;
const TOK_NEXT: u64 = 110;

/// A harvested base encoding: everything needed to rebuild a session's
/// solver state for a signature-equal target without re-running Tseitin.
#[derive(Debug)]
pub struct EncodedCone {
    /// Solver variable count after the base build.
    pub(crate) n_vars: usize,
    /// Every clause added after `Cnf::new`, in insertion order.
    pub(crate) clauses: LitRows,
    /// Current-state literals, in the witness's canonical state order.
    pub(crate) state_lits: LitRows,
    /// Input literals, in the witness's canonical input order.
    pub(crate) input_lits: LitRows,
    /// AND-gate hash-cons cache at harvest time.
    pub(crate) and_cache: GateCache,
    /// XOR-gate hash-cons cache at harvest time.
    pub(crate) xor_cache: GateCache,
}

impl EncodedCone {
    /// Heap bytes of the record's buffers and tables.
    fn bytes(&self) -> u64 {
        self.clauses.bytes()
            + self.state_lits.bytes()
            + self.input_lits.bytes()
            + map_bytes(&self.and_cache)
            + map_bytes(&self.xor_cache)
    }
}

/// Aggregate cache telemetry, readable at any time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Base encodings served by replay.
    pub hits: u64,
    /// Base encodings built fresh (and recorded).
    pub misses: u64,
    /// SAT variables whose allocation a replay skipped re-deriving.
    pub vars_saved: u64,
    /// Clauses a replay spared the Tseitin encoder.
    pub clauses_saved: u64,
    /// Recorded base encodings dropped by [`EncodeCache::evict`] /
    /// [`EncodeCache::evict_encodings`].
    pub evictions: u64,
}

/// Thread-shared cross-target encoding cache.
///
/// One instance serves one learn run over one netlist: the embedded
/// [`SimpMap`] is built once and shared by every session (itself a saving —
/// PR 2 built it per session), and cache keys are only meaningful relative
/// to it.
#[derive(Debug)]
pub struct EncodeCache {
    simp: Arc<SimpMap>,
    entries: Mutex<HashMap<Vec<u64>, Arc<EncodedCone>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    vars_saved: AtomicU64,
    clauses_saved: AtomicU64,
    evicted: AtomicU64,
}

impl EncodeCache {
    /// Builds a cache (and the shared word-level simplification map) for a
    /// netlist.
    pub fn new(netlist: &Netlist) -> EncodeCache {
        EncodeCache {
            simp: Arc::new(SimpMap::build(netlist)),
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            vars_saved: AtomicU64::new(0),
            clauses_saved: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The shared word-level simplification map.
    pub fn simp(&self) -> Arc<SimpMap> {
        Arc::clone(&self.simp)
    }

    /// Computes the canonical signature of `target`'s base encoding: the
    /// constraint cones and the predicate's current/next fetches, serialised
    /// in the exact order [`crate::AbductionSession`] encodes them.
    pub fn signature(&self, netlist: &Netlist, target: &Predicate) -> ConeSignature {
        signature(netlist, &self.simp, target)
    }

    /// Looks up a recorded base encoding for `key`.
    pub(crate) fn lookup(&self, key: &[u64]) -> Option<Arc<EncodedCone>> {
        let entry = self.entries.lock().unwrap().get(key).cloned();
        match &entry {
            Some(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.vars_saved
                    .fetch_add(e.n_vars as u64, Ordering::Relaxed);
                self.clauses_saved
                    .fetch_add(e.clauses.len() as u64, Ordering::Relaxed);
                hh_trace::counter!("smt", "smt.cache.hit", 1);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                hh_trace::counter!("smt", "smt.cache.miss", 1);
            }
        }
        entry
    }

    /// Records a freshly built base encoding (first writer wins; a racing
    /// duplicate is identical by construction, so either copy serves).
    pub(crate) fn insert(&self, mut key: Vec<u64>, entry: EncodedCone) {
        key.shrink_to_fit();
        self.entries
            .lock()
            .unwrap()
            .entry(key)
            .or_insert_with(|| Arc::new(entry));
    }

    /// Current aggregate telemetry.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            vars_saved: self.vars_saved.load(Ordering::Relaxed),
            clauses_saved: self.clauses_saved.load(Ordering::Relaxed),
            evictions: self.evicted.load(Ordering::Relaxed),
        }
    }

    /// Heap bytes the cache holds right now, computed from capacities (so
    /// the figure repeats exactly): the entry table, every key's token
    /// stream and every recorded encoding.
    pub fn resident_bytes(&self) -> u64 {
        let entries = self.entries.lock().expect("encode cache lock");
        map_bytes(&entries)
            + entries
                .iter()
                .map(|(key, entry)| {
                    vec_bytes(key) + std::mem::size_of::<EncodedCone>() as u64 + entry.bytes()
                })
                .sum::<u64>()
    }

    /// Drops the recorded base encoding for `key`, if present; returns
    /// whether an entry was evicted.
    ///
    /// Eviction is always *safe*, only ever a performance event: entries
    /// are handed out as `Arc` snapshots, so sessions replaying the
    /// encoding at eviction time keep their copy, and the next lookup of
    /// the signature simply misses and re-records. hh-vopr's eviction-race
    /// fault calls this at adversarial points mid-run and asserts the
    /// learned invariant is unchanged while misses increase.
    pub fn evict(&self, key: &[u64]) -> bool {
        let removed = self.entries.lock().unwrap().remove(key).is_some();
        if removed {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Drops every recorded base encoding. Returns how many entries were
    /// evicted. Same safety argument as [`EncodeCache::evict`].
    pub fn evict_encodings(&self) -> usize {
        let mut entries = self.entries.lock().unwrap();
        let n = entries.len();
        entries.clear();
        self.evicted.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// The signatures of the currently recorded base encodings, sorted —
    /// the deterministic key list fault injectors pick eviction victims
    /// from.
    pub fn encoding_keys(&self) -> Vec<Vec<u64>> {
        let mut keys: Vec<Vec<u64>> = self.entries.lock().unwrap().keys().cloned().collect();
        keys.sort();
        keys
    }
}

/// Serialises the base encoding a session would build for `target`:
/// constraints first (they are asserted by `TransitionEncoding::new`), then
/// the predicate's current-state fetch, then its next-state fetch. Equal
/// results guarantee the two base builds produce byte-identical solver
/// states (identity variable renaming).
pub fn signature(netlist: &Netlist, simp: &SimpMap, target: &Predicate) -> ConeSignature {
    let mut b = SigBuilder::new(netlist, simp);
    for &c in netlist.constraints() {
        b.push(TOK_CONSTRAINT);
        b.root(c);
    }
    b.push(TOK_ASSERT_NOW);
    sig_predicate(&mut b, netlist, target, false);
    b.push(TOK_ASSERT_NEXT);
    sig_predicate(&mut b, netlist, target, true);
    b.finish()
}

/// Mirrors `Predicate::encode`: shape tokens, then the state fetches in
/// encode order (guards before body for `Impl`).
fn sig_predicate(b: &mut SigBuilder<'_>, netlist: &Netlist, pred: &Predicate, next: bool) {
    let fetch = |b: &mut SigBuilder<'_>, s: StateId| {
        if next {
            b.push(TOK_NEXT);
            b.root(netlist.next_of(s));
        } else {
            b.push(TOK_CUR);
            let slot = b.state(s);
            b.push(slot);
        }
    };
    match pred {
        Predicate::Impl {
            guard_left,
            guard_right,
            body,
        } => {
            b.push(TOK_IMPL);
            fetch(b, *guard_left);
            fetch(b, *guard_right);
            sig_predicate(b, netlist, body, next);
        }
        Predicate::Eq { left, right } => {
            b.push(TOK_EQ);
            fetch(b, *left);
            fetch(b, *right);
        }
        Predicate::EqConst { left, right, value } => {
            b.push(TOK_EQC);
            b.push(u64::from(value.width()));
            b.push(value.bits());
            fetch(b, *left);
            fetch(b, *right);
        }
        // The label is provenance only — it does not influence the encoding.
        Predicate::InSet {
            left,
            right,
            patterns,
            ..
        } => {
            b.push(TOK_INSET);
            b.push(patterns.len() as u64);
            for p in patterns {
                b.push(p.mask);
                b.push(p.value);
            }
            fetch(b, *left);
            fetch(b, *right);
        }
    }
}
