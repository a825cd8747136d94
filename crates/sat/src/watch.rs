//! Watch-list storage for the two-watched-literal scheme.
//!
//! Every watcher of every literal lives in one contiguous `Vec<Watcher>`
//! arena. A literal's list is one region of it, binary-clause watchers first
//! and long-clause watchers behind them, described by a 16-byte
//! `(offset, bins, len, cap)` header: propagation reads the header once and
//! then walks one cache-linear slice, resolving the binary prefix without
//! touching the clause arena. A list that outgrows its region is relocated
//! to the end of the arena with amortized doubling; the abandoned region
//! becomes a hole.
//!
//! The arena's reserved size follows its live size. Live watchers are
//! counted as they come and go, and when the arena holds more than
//! `WASTE_FACTOR` slots per live watcher the solver rebuilds it
//! ([`WatchStore::compact`], one linear, order-preserving copy) at a point
//! where no list is being walked: the start of a solve call — which is where
//! a freshly loaded or replayed formula first stops growing — and the
//! clause-GC sites, with power-of-two headroom per list so steady-state
//! watch moves do not relocate.
//!
//! Watcher order inside the binary and the long part of every list is the
//! propagation visit order, which is part of the solver's determinism
//! contract: no operation here, compaction included, changes it.

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

/// Per-literal header: the list occupies `data[off .. off + len]` — binary
/// watchers in the first `bins` slots, long ones behind them — inside its
/// reserved region `data[off .. off + cap]`.
#[derive(Debug, Clone, Copy, Default)]
struct Head {
    off: u32,
    bins: u32,
    len: u32,
    cap: u32,
}

impl Head {
    #[inline]
    fn start(self) -> usize {
        self.off as usize
    }

    #[inline]
    fn mid(self) -> usize {
        (self.off + self.bins) as usize
    }

    #[inline]
    fn end(self) -> usize {
        (self.off + self.len) as usize
    }
}

/// Minimum region capacity handed to a list when it outgrows its region.
const MIN_CAP: u32 = 4;

/// The arena is rebuilt once it reserves more than this many slots per live
/// watcher. A rebuild reserves at most two, so the arena has
/// to grow by as many slots as it has live watchers before the next one.
const WASTE_FACTOR: usize = 3;

/// Arenas below this many slots are never worth a rebuild.
const WASTE_FLOOR: usize = 1024;

/// Watch lists for all literals.
#[derive(Debug, Default)]
pub(crate) struct WatchStore {
    data: Vec<Watcher>,
    heads: Vec<Head>,
    /// Watchers in all lists: the sum of the headers' `len`.
    live: usize,
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

    /// Arena index bounds of `code`'s list, read once per propagated
    /// literal: binary watchers are [`WatchStore::get`]`(start..mid)`, long
    /// ones `(mid..end)`. The bounds stay valid while other lists are pushed
    /// to (a relocation moves only the list that grew).
    #[inline]
    pub(crate) fn spans(&self, code: usize) -> (usize, usize, usize) {
        let h = self.heads[code];
        (h.start(), h.mid(), h.end())
    }

    /// The watcher at arena index `i` (from [`WatchStore::spans`]).
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Watcher {
        self.data[i]
    }

    /// Overwrites the watcher at arena index `i` (from
    /// [`WatchStore::spans`]).
    #[inline]
    pub(crate) fn set(&mut self, i: usize, w: Watcher) {
        self.data[i] = w;
    }

    /// Appends a long-clause watcher to `code`'s list, relocating the list
    /// to the end of the arena with doubled capacity when it is full.
    #[inline]
    pub(crate) fn push_long(&mut self, code: usize, w: Watcher) {
        if self.heads[code].len == self.heads[code].cap {
            self.grow(code);
        }
        let h = &mut self.heads[code];
        self.data[h.end()] = w;
        h.len += 1;
        self.live += 1;
    }

    /// Appends a binary-clause watcher behind `code`'s other binary
    /// watchers, shifting the long ones up a slot (which keeps their order).
    pub(crate) fn push_bin(&mut self, code: usize, w: Watcher) {
        if self.heads[code].len == self.heads[code].cap {
            self.grow(code);
        }
        let h = &mut self.heads[code];
        self.data.copy_within(h.mid()..h.end(), h.mid() + 1);
        self.data[h.mid()] = w;
        h.bins += 1;
        h.len += 1;
        self.live += 1;
    }

    /// Moves `code`'s full region to the arena end with
    /// `max(MIN_CAP, 2 * cap)` capacity, leaving the old region as a hole.
    #[cold]
    fn grow(&mut self, code: usize) {
        let h = self.heads[code];
        let cap = (h.cap * 2).max(MIN_CAP);
        let off = self.data.len();
        assert!(
            off + cap as usize <= u32::MAX as usize,
            "watch arena exceeds 32-bit addressing"
        );
        self.data.extend_from_within(h.start()..h.end());
        // Physically own the whole region so later relocations of other
        // lists append past it, never into it.
        self.data.resize(off + cap as usize, HOLE);
        self.heads[code] = Head {
            off: off as u32,
            cap,
            ..h
        };
    }

    /// Shrinks the long part of `code`'s list to its first `kept` watchers
    /// (the freed slots stay inside the region and are reused by later
    /// pushes).
    #[inline]
    pub(crate) fn truncate_longs(&mut self, code: usize, kept: usize) {
        let h = &mut self.heads[code];
        let len = h.bins + kept as u32;
        debug_assert!(len <= h.len);
        self.live -= (h.len - len) as usize;
        h.len = len;
    }

    /// The binary watchers of `code` (checks and tests).
    pub(crate) fn bins(&self, code: usize) -> &[Watcher] {
        let h = self.heads[code];
        &self.data[h.start()..h.mid()]
    }

    /// The long watchers of `code` (checks and tests).
    pub(crate) fn longs(&self, code: usize) -> &[Watcher] {
        let h = self.heads[code];
        &self.data[h.mid()..h.end()]
    }

    /// Empties every list but keeps the regions in place, so a rebuild
    /// that reattaches roughly the same clauses refills them without
    /// relocations.
    pub(crate) fn clear(&mut self) {
        for h in &mut self.heads {
            h.bins = 0;
            h.len = 0;
        }
        self.live = 0;
    }

    /// Drops every watcher failing `keep`, preserving order.
    pub(crate) fn retain<F: Fn(&Watcher) -> bool>(&mut self, keep: F) {
        let mut live = 0;
        for h in &mut self.heads {
            let (mid, mut j, mut bins) = (h.mid(), h.start(), 0);
            for i in h.start()..h.end() {
                let w = self.data[i];
                if keep(&w) {
                    self.data[j] = w;
                    j += 1;
                    bins += u32::from(i < mid);
                }
            }
            h.bins = bins;
            h.len = (j - h.start()) as u32;
            live += h.len as usize;
        }
        self.live = live;
    }

    /// Visits every live watcher mutably (clause-arena compaction remaps
    /// the stored [`ClauseRef`]s through this).
    pub(crate) fn for_each_mut<F: FnMut(&mut Watcher)>(&mut self, mut f: F) {
        for h in &self.heads {
            self.data[h.start()..h.end()].iter_mut().for_each(&mut f);
        }
    }

    /// Whether holes and idle capacity dominate the arena enough to justify
    /// a rebuild.
    pub(crate) fn wasteful(&self) -> bool {
        self.data.len() >= WASTE_FLOOR && self.data.len() > WASTE_FACTOR * self.live
    }

    /// Rebuilds the arena without holes, lists in literal order, each list's
    /// watchers in their current order, leaving every non-empty list a
    /// power-of-two region with at least one free slot, so steady-state
    /// watch moves do not relocate.
    pub(crate) fn compact(&mut self) {
        let room = |len: u32| {
            if len == 0 {
                0
            } else {
                (len + 1).next_power_of_two()
            }
        };
        let slots = self.heads.iter().map(|h| room(h.len) as usize).sum();
        let mut packed: Vec<Watcher> = Vec::with_capacity(slots);
        for h in &mut self.heads {
            let off = packed.len();
            packed.extend_from_slice(&self.data[h.start()..h.end()]);
            h.off = off as u32;
            h.cap = room(h.len);
            packed.resize(off + h.cap as usize, HOLE);
        }
        self.data = packed;
    }

    /// Heap bytes currently held by the watch structures — the
    /// `sat.watch_bytes` gauge.
    pub(crate) fn bytes(&self) -> u64 {
        (self.data.capacity() * std::mem::size_of::<Watcher>()
            + self.heads.capacity() * std::mem::size_of::<Head>()) as u64
    }
}

/// The obvious model the arena is tested against: one `Vec` per literal for
/// the binary watchers and one for the long ones.
#[cfg(any(test, kani))]
#[derive(Debug, Default, Clone)]
struct NestedModel {
    bins: Vec<Vec<u32>>,
    longs: Vec<Vec<u32>>,
}

#[cfg(any(test, kani))]
impl NestedModel {
    fn new(codes: usize) -> NestedModel {
        NestedModel {
            bins: vec![Vec::new(); codes],
            longs: vec![Vec::new(); codes],
        }
    }

    /// Asserts that `store` holds exactly this model's lists, in order, and
    /// counts them right.
    fn assert_matches(&self, store: &WatchStore) {
        let crefs = |ws: &[Watcher]| ws.iter().map(|w| w.cref.0).collect::<Vec<u32>>();
        let mut live = 0;
        for code in 0..self.bins.len() {
            assert_eq!(crefs(store.bins(code)), self.bins[code], "bins of {code}");
            assert_eq!(
                crefs(store.longs(code)),
                self.longs[code],
                "longs of {code}"
            );
            live += self.bins[code].len() + self.longs[code].len();
        }
        assert_eq!(store.live, live, "live-watcher count");
    }
}

/// Bounded verification harness for arena compaction: arbitrary
/// interleavings of binary and long pushes (forcing relocations, which
/// orphan regions, and binary inserts, which shift the long part) and
/// `truncate_longs` calls (what propagation does to a list it walked), with
/// a compaction of either fit at an arbitrary point in the middle and an
/// exact one at the end. The live watcher lists must survive byte-for-byte,
/// in order, with the arena usable afterwards. Proved by Kani under
/// `cargo kani` over `OPS` operations; `cargo test` runs the same body on
/// every choice over `SMOKE_OPS` operations, which takes seconds.
#[cfg(any(test, kani))]
mod verification {
    use super::{NestedModel, WatchStore, Watcher};
    use crate::clause::ClauseRef;
    use crate::lit::Lit;

    const CODES: usize = 2;
    /// The Kani bound.
    #[cfg(kani)]
    const OPS: usize = 6;
    /// The enumerated bound.
    #[cfg(test)]
    const SMOKE_OPS: usize = 5;

    fn w(cref: u32) -> Watcher {
        Watcher {
            cref: ClauseRef(cref),
            blocker: Lit(0),
        }
    }

    /// `choose(n)` picks a value below `n`.
    fn compaction_preserves_live_watchers_in_order(
        ops: usize,
        choose: &mut dyn FnMut(usize) -> usize,
    ) {
        let mut store = WatchStore::new();
        let mut model = NestedModel::new(CODES);
        for _ in 0..CODES {
            store.add_lit();
        }
        let compact_before = choose(ops);
        let mut next_cref = 0u32;
        for op in 0..ops {
            if op == compact_before {
                store.compact();
                model.assert_matches(&store);
            }
            let code = choose(CODES);
            match choose(3) {
                0 => {
                    // Propagation keeps a prefix of the long part.
                    let kept = choose(model.longs[code].len() + 1);
                    store.truncate_longs(code, kept);
                    model.longs[code].truncate(kept);
                }
                1 => {
                    store.push_bin(code, w(next_cref));
                    model.bins[code].push(next_cref);
                    next_cref += 1;
                }
                _ => {
                    store.push_long(code, w(next_cref));
                    model.longs[code].push(next_cref);
                    next_cref += 1;
                }
            }
        }
        store.compact();
        assert!(
            store.data.len() <= 2 * store.live,
            "a rebuild reserves at most two slots per live watcher"
        );
        model.assert_matches(&store);
        // The arena stays writable: post-compaction pushes land normally.
        store.push_long(0, w(next_cref));
        model.longs[0].push(next_cref);
        store.push_bin(0, w(next_cref + 1));
        model.bins[0].push(next_cref + 1);
        model.assert_matches(&store);
    }

    #[cfg(kani)]
    #[kani::proof]
    #[kani::unwind(24)]
    fn compaction_proof() {
        compaction_preserves_live_watchers_in_order(OPS, &mut |bound| {
            let x: usize = kani::any();
            kani::assume(x < bound);
            x
        });
    }

    #[test]
    fn compaction_preserves_live_watchers_for_every_choice() {
        let runs = hh_trace::for_every_choice(|choose| {
            compaction_preserves_live_watchers_in_order(SMOKE_OPS, choose)
        });
        assert_eq!(runs, 61_980, "choice sequences of {SMOKE_OPS} operations");
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

    fn store(codes: usize) -> WatchStore {
        let mut s = WatchStore::new();
        for _ in 0..codes {
            s.add_lit();
        }
        s
    }

    #[test]
    fn push_grow_and_order() {
        let mut s = store(4);
        let mut model = NestedModel::new(4);
        // Interleave pushes so lists relocate around each other, binary
        // watchers arriving after long ones.
        for i in 0..40u32 {
            let code = (i % 4) as usize;
            if i % 3 == 0 {
                s.push_bin(code, w(i));
                model.bins[code].push(i);
            } else {
                s.push_long(code, w(i));
                model.longs[code].push(i);
            }
        }
        model.assert_matches(&s);
        let (start, mid, end) = s.spans(1);
        assert_eq!(mid - start, model.bins[1].len());
        assert_eq!(end - mid, model.longs[1].len());
        assert_eq!(s.get(mid).cref.0, model.longs[1][0]);
    }

    #[test]
    fn compact_reclaims_holes_and_preserves_order() {
        let mut s = store(3);
        let mut model = NestedModel::new(3);
        for i in 0..300u32 {
            s.push_long((i % 3) as usize, w(i));
            model.longs[(i % 3) as usize].push(i);
        }
        assert!(s.data.len() > 2 * s.live, "relocations must leave holes");
        s.compact();
        assert_eq!(s.data.len(), 3 * 128, "100 watchers get a 128-slot region");
        assert!(!s.wasteful());
        assert_eq!((s.data.capacity(), s.live), (3 * 128, 300));
        model.assert_matches(&s);
        // Lists keep working after a rebuild: the push lands in the room.
        s.push_long(1, w(999));
        model.longs[1].push(999);
        model.assert_matches(&s);
    }

    #[test]
    fn a_roomy_rebuild_is_never_wasteful() {
        // The worst cases for the headroom policy: lists of one watcher and
        // lists that are a power of two long both get twice their length.
        let mut s = store(WASTE_FLOOR);
        for code in 0..WASTE_FLOOR {
            for i in 0..9 {
                s.push_long(code, w(i));
            }
            s.truncate_longs(code, 1 + 3 * (code % 2));
        }
        assert!(s.wasteful());
        s.compact();
        assert!(!s.wasteful());
        assert_eq!(s.data.len(), 2 * s.live);
        // Every list can take a push where it is.
        let before = s.data.len();
        for code in 0..WASTE_FLOOR {
            s.push_long(code, w(99));
        }
        assert_eq!(s.data.len(), before);
    }

    /// The arena against the nested model under every operation the solver
    /// performs, compacting at arbitrary moments in between and more pushes
    /// after each.
    #[test]
    fn agrees_with_nested_vec_model_under_mixed_workload() {
        const CODES: usize = 6;
        let mut flat = store(CODES);
        let mut model = NestedModel::new(CODES);
        let mut x = 0x12345678u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut rebuilds = 0;
        for step in 0..6000 {
            let code = (rng() % CODES as u64) as usize;
            match rng() % 16 {
                0..=5 => {
                    let c = (rng() % 50) as u32;
                    flat.push_long(code, w(c));
                    model.longs[code].push(c);
                }
                6..=8 => {
                    let c = (rng() % 50) as u32;
                    flat.push_bin(code, w(c));
                    model.bins[code].push(c);
                }
                9..=12 => {
                    let kept = (rng() as usize) % (model.longs[code].len() + 1);
                    flat.truncate_longs(code, kept);
                    model.longs[code].truncate(kept);
                }
                13 => {
                    let parity = (rng() % 2) as u32;
                    flat.retain(|w| w.cref.0 % 2 == parity);
                    for l in model.bins.iter_mut().chain(&mut model.longs) {
                        l.retain(|c| c % 2 == parity);
                    }
                }
                _ => {
                    // At most two slots per live watcher, and no hole.
                    flat.compact();
                    assert!(flat.data.len() <= 2 * flat.live);
                    assert_eq!(flat.data.capacity(), flat.data.len());
                    rebuilds += 1;
                }
            }
            if flat.wasteful() {
                flat.compact();
            }
            if step % 7 == 0 {
                model.assert_matches(&flat);
            }
        }
        model.assert_matches(&flat);
        assert!(rebuilds > 200, "{rebuilds}");
        flat.for_each_mut(|w| w.cref.0 += 1);
        for l in model.bins.iter_mut().chain(&mut model.longs) {
            l.iter_mut().for_each(|c| *c += 1);
        }
        model.assert_matches(&flat);
        flat.clear();
        NestedModel::new(CODES).assert_matches(&flat);
    }
}
