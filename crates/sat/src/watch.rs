//! Watch-list storage for the two-watched-literal scheme.
//!
//! Every watcher of every literal lives in one contiguous `Vec<Watcher>`
//! arena, with a per-literal `(offset, len, cap)` header. Propagation walks
//! one cache-linear slice per literal instead of chasing a separate heap
//! allocation per literal. A list that outgrows its capacity is relocated
//! to the end of the arena with amortized doubling; the abandoned region
//! becomes a lazy hole counted in `garbage`. Holes are reclaimed by
//! [`WatchStore::compact`] (rebuild-in-place, order preserving), which the
//! solver piggybacks on the clause-arena GC sites.
//!
//! The accessor methods take and return [`Watcher`] by value and index
//! lists by literal code, so the solver can interleave them with clause
//! arena borrows without fighting the borrow checker.

use crate::clause::ClauseRef;
use crate::lit::Lit;

/// One watch-list entry: the clause and a cached "blocker" literal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Watcher {
    /// The watched clause.
    pub cref: ClauseRef,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause needs no work (MiniSat's "blocker"). For binary
    /// clauses the blocker is the *whole* other half of the clause, so the
    /// fast path never loads the arena.
    pub blocker: Lit,
}

/// Placeholder entry for unused capacity inside a region. Never read:
/// every access is bounded by the header's `len`, not its `cap`.
const HOLE: Watcher = Watcher {
    cref: ClauseRef(u32::MAX),
    blocker: Lit(u32::MAX),
};

/// Per-literal header: the list occupies
/// `data[off .. off + len]` inside its reserved region
/// `data[off .. off + cap]`.
#[derive(Debug, Clone, Copy, Default)]
struct Head {
    off: u32,
    len: u32,
    cap: u32,
}

/// Minimum region capacity handed to a list on its first relocation.
const MIN_CAP: u32 = 4;

/// Watch lists for all literals.
#[derive(Debug, Default)]
pub(crate) struct WatchStore {
    data: Vec<Watcher>,
    heads: Vec<Head>,
    /// Arena slots orphaned by list relocation (whole abandoned regions).
    garbage: usize,
}

impl WatchStore {
    pub(crate) fn new() -> WatchStore {
        WatchStore::default()
    }

    /// Registers one more literal code (two calls per new variable).
    pub(crate) fn add_lit(&mut self) {
        self.heads.push(Head::default());
    }

    /// Number of literal codes registered.
    pub(crate) fn num_codes(&self) -> usize {
        self.heads.len()
    }

    /// Length of the watch list of literal code `code`.
    #[inline]
    pub(crate) fn len(&self, code: usize) -> usize {
        self.heads[code].len as usize
    }

    /// The `i`-th watcher of `code`.
    #[inline]
    pub(crate) fn get(&self, code: usize, i: usize) -> Watcher {
        let h = self.heads[code];
        debug_assert!((i as u32) < h.len);
        self.data[h.off as usize + i]
    }

    /// Overwrites the `i`-th watcher of `code`.
    #[inline]
    pub(crate) fn set(&mut self, code: usize, i: usize, w: Watcher) {
        let h = self.heads[code];
        debug_assert!((i as u32) < h.len);
        self.data[h.off as usize + i] = w;
    }

    /// Appends a watcher to `code`'s list, relocating the list to the end
    /// of the arena with doubled capacity when it is full.
    #[inline]
    pub(crate) fn push(&mut self, code: usize, w: Watcher) {
        let h = self.heads[code];
        if h.len < h.cap {
            self.data[(h.off + h.len) as usize] = w;
            self.heads[code].len = h.len + 1;
            return;
        }
        self.relocate_and_push(code, w);
    }

    /// Cold path of [`WatchStore::push`]: move `code`'s full region to the
    /// arena end with `max(MIN_CAP, 2 * cap)` capacity, leaving the old
    /// region as a lazy hole.
    #[cold]
    fn relocate_and_push(&mut self, code: usize, w: Watcher) {
        let h = self.heads[code];
        let new_cap = (h.cap * 2).max(MIN_CAP);
        let new_off = self.data.len() as u32;
        self.data.reserve(new_cap as usize);
        for i in 0..h.len {
            let x = self.data[(h.off + i) as usize];
            self.data.push(x);
        }
        self.data.push(w);
        // Physically own the whole region so later relocations of other
        // lists append past it, never into it.
        for _ in (h.len + 1)..new_cap {
            self.data.push(HOLE);
        }
        self.garbage += h.cap as usize;
        self.heads[code] = Head {
            off: new_off,
            len: h.len + 1,
            cap: new_cap,
        };
    }

    /// Shrinks `code`'s list to `new_len` (the freed slots stay inside the
    /// region's capacity and are reused by later pushes).
    #[inline]
    pub(crate) fn truncate(&mut self, code: usize, new_len: usize) {
        debug_assert!(new_len as u32 <= self.heads[code].len);
        self.heads[code].len = new_len as u32;
    }

    /// Removes the first watcher of `code` that watches `cref`, preserving
    /// the order of the rest (propagation visit order is part of the
    /// solver's determinism contract). Returns whether one was found.
    pub(crate) fn remove_first(&mut self, code: usize, cref: ClauseRef) -> bool {
        let n = self.len(code);
        for i in 0..n {
            if self.get(code, i).cref == cref {
                for j in i..n - 1 {
                    let w = self.get(code, j + 1);
                    self.set(code, j, w);
                }
                self.truncate(code, n - 1);
                return true;
            }
        }
        false
    }

    /// The current watch list of `code` as a slice (checks and tests).
    pub(crate) fn slice(&self, code: usize) -> &[Watcher] {
        let h = self.heads[code];
        &self.data[h.off as usize..(h.off + h.len) as usize]
    }

    /// Empties every list but keeps the regions in place, so a rebuild
    /// that reattaches roughly the same clauses refills them without
    /// relocations.
    pub(crate) fn clear(&mut self) {
        for h in &mut self.heads {
            h.len = 0;
        }
    }

    /// Drops every watcher failing `keep`, preserving order.
    pub(crate) fn retain<F: Fn(&Watcher) -> bool>(&mut self, keep: F) {
        for code in 0..self.heads.len() {
            let h = self.heads[code];
            let (off, len) = (h.off as usize, h.len as usize);
            let mut j = 0;
            for i in 0..len {
                let w = self.data[off + i];
                if keep(&w) {
                    self.data[off + j] = w;
                    j += 1;
                }
            }
            self.heads[code].len = j as u32;
        }
    }

    /// Visits every live watcher mutably (clause-arena compaction remaps
    /// the stored [`ClauseRef`]s through this).
    pub(crate) fn for_each_mut<F: FnMut(&mut Watcher)>(&mut self, mut f: F) {
        for code in 0..self.heads.len() {
            let h = self.heads[code];
            for i in 0..h.len as usize {
                f(&mut self.data[h.off as usize + i]);
            }
        }
    }

    /// Whether relocation holes dominate the arena enough to justify an
    /// in-place compaction.
    pub(crate) fn should_compact(&self) -> bool {
        self.data.len() >= 1024 && self.garbage * 2 > self.data.len()
    }

    /// Rebuilds the arena tightly in place, preserving per-list order and
    /// granting each list a power-of-two region so post-compaction pushes
    /// amortize as before.
    pub(crate) fn compact(&mut self) {
        let mut packed: Vec<Watcher> = Vec::with_capacity(self.data.len() - self.garbage);
        for code in 0..self.heads.len() {
            let h = self.heads[code];
            let new_off = packed.len() as u32;
            let new_cap = if h.len == 0 {
                0
            } else {
                h.len.next_power_of_two().max(MIN_CAP)
            };
            for i in 0..h.len {
                packed.push(self.data[(h.off + i) as usize]);
            }
            packed.extend(std::iter::repeat_n(HOLE, (new_cap - h.len) as usize));
            self.heads[code] = Head {
                off: new_off,
                len: h.len,
                cap: new_cap,
            };
        }
        self.data = packed;
        self.garbage = 0;
    }

    /// Heap bytes currently held by the watch structures — the
    /// `sat.watch_bytes` gauge.
    pub(crate) fn bytes(&self) -> u64 {
        (self.data.capacity() * std::mem::size_of::<Watcher>()
            + self.heads.capacity() * std::mem::size_of::<Head>()) as u64
    }
}

/// Bounded verification harness for flat-arena compaction under a
/// BVE-style workload: arbitrary interleavings of pushes (forcing
/// relocations, which orphan regions) and `remove_first` detachments (what
/// bounded variable elimination does to a dying clause's watchers), then a
/// compaction. The live watcher lists must survive byte-for-byte, in
/// order, with the arena usable afterwards. Proved by Kani under
/// `cargo kani`; compiled and concretely executed under `kani-harness`.
#[cfg(any(kani, feature = "kani-harness"))]
#[allow(dead_code)]
mod verification {
    use super::{WatchStore, Watcher};
    use crate::clause::ClauseRef;
    use crate::lit::Lit;

    #[cfg(kani)]
    fn arb_below(bound: usize) -> usize {
        let x: usize = kani::any();
        kani::assume(x < bound);
        x
    }

    #[cfg(not(kani))]
    fn arb_below(bound: usize) -> usize {
        use std::cell::Cell;
        thread_local! {
            static STATE: Cell<u64> = const { Cell::new(0xda3e_39cb_94b9_5bdb) };
        }
        STATE.with(|s| {
            let next = s
                .get()
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s.set(next);
            (next >> 33) as usize % bound.max(1)
        })
    }

    #[cfg_attr(kani, kani::proof, kani::unwind(24))]
    pub fn compaction_preserves_live_watchers_in_order() {
        const CODES: usize = 2;
        const OPS: usize = 6;
        let mut store = WatchStore::new();
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); CODES];
        for _ in 0..CODES {
            store.add_lit();
        }
        let mut next_cref = 0u32;
        for _ in 0..OPS {
            let code = arb_below(CODES);
            if arb_below(4) == 0 && !model[code].is_empty() {
                // BVE detaches a dying clause's watcher.
                let victim = model[code][arb_below(model[code].len())];
                assert!(store.remove_first(code, ClauseRef(victim)));
                let pos = model[code].iter().position(|&c| c == victim).unwrap();
                model[code].remove(pos);
            } else {
                store.push(
                    code,
                    Watcher {
                        cref: ClauseRef(next_cref),
                        blocker: Lit(0),
                    },
                );
                model[code].push(next_cref);
                next_cref += 1;
            }
        }
        store.compact();
        assert_eq!(store.garbage, 0, "compaction reclaims every hole");
        for (code, want) in model.iter().enumerate() {
            let got: Vec<u32> = store.slice(code).iter().map(|w| w.cref.0).collect();
            assert_eq!(&got, want, "list {code} must survive compaction in order");
        }
        // The arena stays writable: a post-compaction push lands normally.
        store.push(
            0,
            Watcher {
                cref: ClauseRef(next_cref),
                blocker: Lit(0),
            },
        );
        assert_eq!(
            store.slice(0).last().map(|w| w.cref.0),
            Some(next_cref),
            "post-compaction push must append"
        );
    }

    #[cfg(all(test, not(kani)))]
    mod exec {
        #[test]
        fn harness_runs_concretely() {
            for _ in 0..128 {
                super::compaction_preserves_live_watchers_in_order();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(c: u32) -> Watcher {
        Watcher {
            cref: ClauseRef(c),
            blocker: Lit(0),
        }
    }

    fn contents(s: &WatchStore, code: usize) -> Vec<u32> {
        s.slice(code).iter().map(|x| x.cref.0).collect()
    }

    #[test]
    fn flat_push_grow_and_order() {
        let mut s = WatchStore::new();
        for _ in 0..4 {
            s.add_lit();
        }
        // Interleave pushes so lists relocate around each other.
        for i in 0..20u32 {
            s.push((i % 4) as usize, w(i));
        }
        for code in 0..4 {
            let got = contents(&s, code);
            let want: Vec<u32> = (0..20).filter(|i| (i % 4) as usize == code).collect();
            assert_eq!(got, want, "list {code} lost order");
        }
    }

    #[test]
    fn flat_compact_reclaims_holes_and_preserves_order() {
        let mut s = WatchStore::new();
        for _ in 0..3 {
            s.add_lit();
        }
        for i in 0..300u32 {
            s.push((i % 3) as usize, w(i));
        }
        assert!(s.garbage > 0, "relocations must leave holes");
        let before: Vec<Vec<u32>> = (0..3).map(|c| contents(&s, c)).collect();
        s.compact();
        assert_eq!(s.garbage, 0);
        let after: Vec<Vec<u32>> = (0..3).map(|c| contents(&s, c)).collect();
        assert_eq!(before, after);
        // Lists keep working after compaction.
        s.push(1, w(999));
        assert_eq!(*contents(&s, 1).last().unwrap(), 999);
    }

    #[test]
    fn flat_remove_first_preserves_rest() {
        let mut s = WatchStore::new();
        s.add_lit();
        for i in [7u32, 8, 9, 8, 10] {
            s.push(0, w(i));
        }
        assert!(s.remove_first(0, ClauseRef(8)));
        assert_eq!(contents(&s, 0), vec![7, 9, 8, 10]);
        assert!(!s.remove_first(0, ClauseRef(42)));
    }

    /// The arena against the obvious model, one `Vec` per literal.
    #[test]
    fn agrees_with_nested_vec_model_under_mixed_workload() {
        let mut flat = WatchStore::new();
        let mut nested: Vec<Vec<Watcher>> = vec![Vec::new(); 6];
        for _ in 0..6 {
            flat.add_lit();
        }
        let model = |nested: &[Vec<Watcher>], code: usize| -> Vec<u32> {
            nested[code].iter().map(|x| x.cref.0).collect()
        };
        let mut x = 0x12345678u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..2000 {
            let op = rng() % 4;
            let code = (rng() % 6) as usize;
            match op {
                0 | 1 => {
                    let c = (rng() % 50) as u32;
                    flat.push(code, w(c));
                    nested[code].push(w(c));
                }
                2 => {
                    let c = ClauseRef((rng() % 50) as u32);
                    let pos = nested[code].iter().position(|x| x.cref == c);
                    if let Some(pos) = pos {
                        nested[code].remove(pos);
                    }
                    assert_eq!(flat.remove_first(code, c), pos.is_some());
                }
                _ => {
                    if flat.len(code) > 0 {
                        let n = (rng() as usize) % flat.len(code);
                        flat.truncate(code, n);
                        nested[code].truncate(n);
                    }
                }
            }
            if flat.should_compact() {
                flat.compact();
            }
        }
        for code in 0..6 {
            assert_eq!(contents(&flat, code), model(&nested, code));
        }
        flat.retain(|w| w.cref.0 % 2 == 0);
        for l in &mut nested {
            l.retain(|w| w.cref.0 % 2 == 0);
        }
        for code in 0..6 {
            assert_eq!(contents(&flat, code), model(&nested, code));
        }
    }
}
