//! Per-target encoding cache of a daemon job.
//!
//! A daemon job re-learns after a memo flush, and each such query starts
//! from the base encoding `target ∧ ¬target'` an earlier learn of the job
//! built — the traversal in [`crate::TransitionEncoding`] is a pure
//! function of the netlist and the target. The job attaches one
//! [`EncodeCache`] to all its learns, shared by their
//! [`crate::AbductionSession`]s:
//!
//! * **Encoding replay.** The first session for a target records its base
//!   encoding — the ordered clause stream plus the state/input literal
//!   tables and gate hash-cons caches — keyed by the target predicate. A
//!   later session for the same target (a re-learn, or a backtracking
//!   retry, §3.2.4) *replays* that record into its fresh solver instead of
//!   re-running Tseitin. A record is flat buffers (literals and row ends),
//!   not a heap block per clause, and holds no per-node table: nothing
//!   reads one after a replay (candidates encode over current-state
//!   literals, and a node asked for again is re-derived from them).
//! * **Identical state.** Every session starts from an empty solver, and
//!   the blaster allocates variables in traversal order, so a replay yields
//!   a solver state byte-identical to the one a fresh build would have
//!   built. Learned invariants cannot depend on whether an encoding was
//!   replayed; only the telemetry differs. A target is never in flight
//!   twice in one run, so which session records it is not a race either.
//!
//! A learn with no cache attached records nothing: recording every cone
//! for the few retries of one run costs more than re-blasting them.
//!
//! The cache is job-lifetime shared state behind a plain [`Mutex`]: entry
//! construction happens off-lock, the critical sections are map lookups and
//! inserts.

use crate::cnf::{map_bytes, vec_bytes, GateCache, LitRows};
use crate::pred::Predicate;
use hh_netlist::simp::SimpMap;
use hh_netlist::{InputId, Netlist, StateId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A harvested base encoding: everything needed to rebuild a session's
/// solver state for the same target without re-running Tseitin.
#[derive(Debug)]
pub struct EncodedCone {
    /// Solver variable count after the base build.
    pub(crate) n_vars: usize,
    /// Every clause added after `Cnf::new`, in insertion order.
    pub(crate) clauses: LitRows,
    /// The states whose current value the encoding allocated variables for.
    pub(crate) states: Vec<StateId>,
    /// Their literals, one row per entry of `states`.
    pub(crate) state_lits: LitRows,
    /// The inputs the encoding allocated variables for.
    pub(crate) inputs: Vec<InputId>,
    /// Their literals, one row per entry of `inputs`.
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
            + vec_bytes(&self.states)
            + self.state_lits.bytes()
            + vec_bytes(&self.inputs)
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
}

/// Thread-shared per-target encoding cache.
///
/// One instance serves one netlist: the embedded [`SimpMap`] is built once
/// and shared by every session, and a recorded encoding is only meaningful
/// relative to it.
#[derive(Debug)]
pub struct EncodeCache {
    simp: Arc<SimpMap>,
    entries: Mutex<HashMap<Arc<Predicate>, Arc<EncodedCone>>>,
    hits: AtomicU64,
    misses: AtomicU64,
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
        }
    }

    /// The shared word-level simplification map.
    pub fn simp(&self) -> Arc<SimpMap> {
        Arc::clone(&self.simp)
    }

    /// Looks up the recorded base encoding of `target`.
    pub(crate) fn lookup(&self, target: &Predicate) -> Option<Arc<EncodedCone>> {
        let entry = self.entries.lock().unwrap().get(target).cloned();
        match &entry {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                hh_trace::counter!("smt", "smt.cache.hit", 1);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                hh_trace::counter!("smt", "smt.cache.miss", 1);
            }
        }
        entry
    }

    /// Records a freshly built base encoding of `target` (first writer
    /// wins; a duplicate is identical by construction, so either copy
    /// serves). The key shares the session's predicate, it is not copied.
    pub(crate) fn insert(&self, target: Arc<Predicate>, entry: EncodedCone) {
        self.entries
            .lock()
            .unwrap()
            .entry(target)
            .or_insert_with(|| Arc::new(entry));
    }

    /// Current aggregate telemetry.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Heap bytes the cache holds right now, computed from capacities (so
    /// the figure repeats exactly): the entry table and every recorded
    /// encoding. A key is the recording session's target `Arc`, shared
    /// rather than copied, and its predicate is not counted.
    pub fn resident_bytes(&self) -> u64 {
        let entries = self.entries.lock().expect("encode cache lock");
        map_bytes(&entries)
            + entries
                .values()
                .map(|entry| std::mem::size_of::<EncodedCone>() as u64 + entry.bytes())
                .sum::<u64>()
    }
}
