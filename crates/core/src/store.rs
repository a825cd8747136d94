//! Interned predicate storage.
//!
//! The engine manipulates predicates by dense [`PredId`] so that memo tables,
//! failure sets and abducts are cheap integer sets; the store deduplicates
//! structurally identical predicates, which is what makes memoisation across
//! overlapping cones-of-influence effective (paper §3.2.1: "if two cones of
//! influence overlap, the overlap need only be analyzed once").

use hh_smt::Predicate;
use std::collections::HashMap;
use std::sync::Arc;

/// Dense identifier of an interned predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredId(pub(crate) u32);

impl PredId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs the id with the given dense index. Ids are only meaningful
    /// relative to one [`PredicateStore`]; this exists for telemetry
    /// fixtures and tests.
    pub fn from_index(i: usize) -> PredId {
        PredId(i as u32)
    }
}

/// Interning table for [`Predicate`]s.
///
/// Predicates are stored behind [`Arc`] so that job payloads (worker-thread
/// abduction jobs, sessions) can share them without deep-cloning the
/// predicate tree per job.
#[derive(Debug, Default)]
pub struct PredicateStore {
    preds: Vec<Arc<Predicate>>,
    index: HashMap<Predicate, PredId>,
}

impl PredicateStore {
    /// Creates an empty store.
    pub fn new() -> PredicateStore {
        PredicateStore::default()
    }

    /// Interns a predicate, returning its stable id.
    pub fn intern(&mut self, pred: Predicate) -> PredId {
        if let Some(&id) = self.index.get(&pred) {
            return id;
        }
        let id = PredId(self.preds.len() as u32);
        self.index.insert(pred.clone(), id);
        self.preds.push(Arc::new(pred));
        id
    }

    /// Looks up a predicate by id.
    pub fn get(&self, id: PredId) -> &Predicate {
        &self.preds[id.index()]
    }

    /// Looks up a predicate by id as a cheaply clonable shared handle.
    pub fn get_arc(&self, id: PredId) -> Arc<Predicate> {
        Arc::clone(&self.preds[id.index()])
    }

    /// Number of interned predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Materialises a set of ids into predicate clones.
    pub fn resolve(&self, ids: &[PredId]) -> Vec<Predicate> {
        ids.iter().map(|&i| self.get(i).clone()).collect()
    }

    /// Materialises a set of ids into shared handles (no deep clones).
    pub fn resolve_arc(&self, ids: &[PredId]) -> Vec<Arc<Predicate>> {
        ids.iter().map(|&i| self.get_arc(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_netlist::StateId;

    #[test]
    fn interning_dedups() {
        let mut s = PredicateStore::new();
        let a = StateId::from_index(0);
        let b = StateId::from_index(1);
        let p1 = s.intern(Predicate::eq(a, b));
        let p2 = s.intern(Predicate::eq(a, b));
        assert_eq!(p1, p2);
        assert_eq!(s.len(), 1);
        let p3 = s.intern(Predicate::eq(b, a));
        assert_ne!(p1, p3);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn resolve_roundtrips() {
        let mut s = PredicateStore::new();
        let a = StateId::from_index(0);
        let b = StateId::from_index(1);
        let id = s.intern(Predicate::eq(a, b));
        let out = s.resolve(&[id]);
        assert_eq!(out[0], Predicate::eq(a, b));
        assert!(!s.is_empty());
    }
}
