//! Flat clause arena.
//!
//! Clauses live contiguously in one `Vec<u32>` store and are addressed by
//! [`ClauseRef`], a 32-bit word offset into that store. Each clause occupies
//! `2 + size` words:
//!
//! ```text
//! word 0: header — size (20 bits) | LBD (7 bits, capped) | learnt (1 bit)
//!                  | tier (2 bits) | used (1 bit) | deleted (1 bit)
//! word 1: activity as f32 bits
//! word 2..: literal codes
//! ```
//!
//! The propagation loop therefore touches cache-linear memory: loading a
//! clause is one offset addition, and its literals sit right behind the
//! header. `Lit` is `repr(transparent)` over `u32`, so literal slices are
//! zero-copy views of the arena.
//!
//! Deletion marks the header and counts the clause's footprint as garbage;
//! the slot stays valid (for watcher scrubbing and proof logging) until
//! [`ClauseDb::compact`] slides the live clauses down in place and returns
//! an old→new offset table for the solver to remap its reasons and
//! watchers.
//!
//! Learnt clauses carry a three-tier classification (`core`/`mid`/`local`)
//! driven by LBD; the solver's database reduction deletes only from the
//! local tier and demotes unused mid-tier clauses, so glue clauses are never
//! lost (see [`crate::Solver`]).

use crate::lit::Lit;

/// Reference to a clause inside a [`ClauseDb`]: the word offset of its
/// header in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ClauseRef(pub(crate) u32);

/// Words occupied by the header (flags + activity) before the literals.
const HEADER_WORDS: usize = 2;

const SIZE_BITS: u32 = 20;
const SIZE_MASK: u32 = (1 << SIZE_BITS) - 1;
const LBD_SHIFT: u32 = 20;
/// LBDs are stored saturated at this value; ordering above the cap does not
/// matter because such clauses are all deep in the local tier anyway.
pub(crate) const LBD_CAP: u32 = 0x7F;
const LEARNT_BIT: u32 = 1 << 27;
const TIER_SHIFT: u32 = 28;
const TIER_MASK: u32 = 0b11;
const USED_BIT: u32 = 1 << 30;
const DELETED_BIT: u32 = 1 << 31;

/// Learnt-clause tier, packed into two header bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Tier {
    /// Glue clauses (LBD ≤ core threshold): kept forever.
    Core = 0,
    /// Medium-LBD clauses: survive reductions while they keep being used,
    /// demoted to [`Tier::Local`] after an idle round.
    Mid = 1,
    /// Everything else: the only tier database reduction deletes from.
    Local = 2,
}

impl Tier {
    fn from_bits(bits: u32) -> Tier {
        match bits & TIER_MASK {
            0 => Tier::Core,
            1 => Tier::Mid,
            _ => Tier::Local,
        }
    }
}

/// Arena of clauses.
#[derive(Debug, Default)]
pub(crate) struct ClauseDb {
    /// The flat store: headers, activities and literal codes.
    data: Vec<u32>,
    /// Live + not-yet-swept original clauses, in insertion order.
    clause_list: Vec<ClauseRef>,
    /// Live + not-yet-swept learnt clauses, in insertion (= learn) order.
    learnt_list: Vec<ClauseRef>,
    /// Live original clauses.
    num_orig: usize,
    /// Live learnt clauses.
    num_learnts: usize,
    /// Live learnt clauses currently in [`Tier::Local`].
    num_local: usize,
    /// Arena words occupied by deleted clauses.
    garbage: usize,
}

impl ClauseDb {
    pub(crate) fn new() -> ClauseDb {
        ClauseDb::default()
    }

    #[inline]
    fn header(&self, cref: ClauseRef) -> u32 {
        self.data[cref.0 as usize]
    }

    /// Allocates a clause and returns its ref. Unit/empty clauses are never
    /// stored (they live on the trail / in `ok`).
    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32, tier: Tier) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "unit/empty clauses are not stored");
        debug_assert!(
            lits.len() <= SIZE_MASK as usize,
            "clause too long for header"
        );
        let off = self.data.len();
        assert!(
            off + HEADER_WORDS + lits.len() <= u32::MAX as usize,
            "clause arena exceeds 32-bit addressing"
        );
        let mut header = lits.len() as u32;
        header |= lbd.min(LBD_CAP) << LBD_SHIFT;
        if learnt {
            header |= LEARNT_BIT;
            header |= (tier as u32) << TIER_SHIFT;
            self.num_learnts += 1;
            if tier == Tier::Local {
                self.num_local += 1;
            }
        } else {
            self.num_orig += 1;
        }
        self.data.push(header);
        self.data.push(0.0f32.to_bits());
        for l in lits {
            self.data.push(l.0);
        }
        let cref = ClauseRef(off as u32);
        if learnt {
            self.learnt_list.push(cref);
        } else {
            self.clause_list.push(cref);
        }
        cref
    }

    /// Number of literals currently in the clause.
    #[inline]
    pub(crate) fn size(&self, cref: ClauseRef) -> usize {
        (self.header(cref) & SIZE_MASK) as usize
    }

    /// The clause's literals as a zero-copy view of the arena.
    #[inline]
    pub(crate) fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let off = cref.0 as usize;
        let size = (self.data[off] & SIZE_MASK) as usize;
        let words = &self.data[off + HEADER_WORDS..off + HEADER_WORDS + size];
        // SAFETY: `Lit` is `repr(transparent)` over `u32`, so a `[u32]`
        // slice of literal codes has identical layout to `[Lit]`.
        unsafe { &*(words as *const [u32] as *const [Lit]) }
    }

    /// Mutable literal view, for the watched-literal swaps in propagation.
    #[inline]
    pub(crate) fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let off = cref.0 as usize;
        let size = (self.data[off] & SIZE_MASK) as usize;
        let words = &mut self.data[off + HEADER_WORDS..off + HEADER_WORDS + size];
        // SAFETY: as in [`ClauseDb::lits`].
        unsafe { &mut *(words as *mut [u32] as *mut [Lit]) }
    }

    #[inline]
    pub(crate) fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.header(cref) & LEARNT_BIT != 0
    }

    #[inline]
    pub(crate) fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.header(cref) & DELETED_BIT != 0
    }

    #[inline]
    pub(crate) fn lbd(&self, cref: ClauseRef) -> u32 {
        (self.header(cref) >> LBD_SHIFT) & LBD_CAP
    }

    pub(crate) fn set_lbd(&mut self, cref: ClauseRef, lbd: u32) {
        let off = cref.0 as usize;
        self.data[off] =
            (self.data[off] & !(LBD_CAP << LBD_SHIFT)) | (lbd.min(LBD_CAP) << LBD_SHIFT);
    }

    #[inline]
    pub(crate) fn tier(&self, cref: ClauseRef) -> Tier {
        Tier::from_bits(self.header(cref) >> TIER_SHIFT)
    }

    pub(crate) fn set_tier(&mut self, cref: ClauseRef, tier: Tier) {
        debug_assert!(self.is_learnt(cref) && !self.is_deleted(cref));
        let old = self.tier(cref);
        if old == tier {
            return;
        }
        if old == Tier::Local {
            self.num_local -= 1;
        }
        if tier == Tier::Local {
            self.num_local += 1;
        }
        let off = cref.0 as usize;
        self.data[off] =
            (self.data[off] & !(TIER_MASK << TIER_SHIFT)) | ((tier as u32) << TIER_SHIFT);
    }

    #[inline]
    pub(crate) fn is_used(&self, cref: ClauseRef) -> bool {
        self.header(cref) & USED_BIT != 0
    }

    #[inline]
    pub(crate) fn set_used(&mut self, cref: ClauseRef) {
        self.data[cref.0 as usize] |= USED_BIT;
    }

    #[inline]
    pub(crate) fn clear_used(&mut self, cref: ClauseRef) {
        self.data[cref.0 as usize] &= !USED_BIT;
    }

    #[inline]
    pub(crate) fn activity(&self, cref: ClauseRef) -> f32 {
        f32::from_bits(self.data[cref.0 as usize + 1])
    }

    #[inline]
    pub(crate) fn set_activity(&mut self, cref: ClauseRef, activity: f32) {
        self.data[cref.0 as usize + 1] = activity.to_bits();
    }

    /// Multiplies every live learnt clause's activity by `factor`
    /// (overflow rescaling).
    pub(crate) fn rescale_activities(&mut self, factor: f32) {
        for i in 0..self.learnt_list.len() {
            let cref = self.learnt_list[i];
            if !self.is_deleted(cref) {
                let a = self.activity(cref) * factor;
                self.set_activity(cref, a);
            }
        }
    }

    /// Marks the clause deleted. The slot stays readable (for proof logging
    /// and watcher scrubbing) until the next [`ClauseDb::compact`]; its
    /// footprint is counted as garbage immediately.
    pub(crate) fn delete(&mut self, cref: ClauseRef) {
        debug_assert!(!self.is_deleted(cref));
        if self.is_learnt(cref) {
            self.num_learnts -= 1;
            if self.tier(cref) == Tier::Local {
                self.num_local -= 1;
            }
        } else {
            self.num_orig -= 1;
        }
        self.garbage += HEADER_WORDS + self.size(cref);
        self.data[cref.0 as usize] |= DELETED_BIT;
    }

    /// Live original + learnt clauses.
    #[inline]
    pub(crate) fn num_clauses(&self) -> usize {
        self.num_orig + self.num_learnts
    }

    /// Live learnt clauses.
    #[cfg(test)]
    pub(crate) fn num_learnts(&self) -> usize {
        self.num_learnts
    }

    /// Live learnt clauses in [`Tier::Local`] (the reducible population).
    #[inline]
    pub(crate) fn num_local(&self) -> usize {
        self.num_local
    }

    /// Current arena size in words (including garbage).
    #[inline]
    pub(crate) fn arena_words(&self) -> usize {
        self.data.len()
    }

    /// Heap bytes held by the arena and the clause lists.
    pub(crate) fn bytes(&self) -> u64 {
        ((self.data.capacity() + self.clause_list.capacity() + self.learnt_list.capacity()) * 4)
            as u64
    }

    /// Fraction of the arena occupied by deleted words.
    pub(crate) fn garbage_frac(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.garbage as f64 / self.data.len() as f64
        }
    }

    /// Iterates over the refs of all live clauses (originals first, then
    /// learnts, each in insertion order).
    pub(crate) fn live_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.clause_list
            .iter()
            .chain(self.learnt_list.iter())
            .copied()
            .filter(|&c| !self.is_deleted(c))
    }

    /// Refs of live learnt clauses in learn order.
    pub(crate) fn learnt_refs(&self) -> Vec<ClauseRef> {
        self.learnt_list
            .iter()
            .copied()
            .filter(|&c| !self.is_deleted(c))
            .collect()
    }

    /// Drops swept-over (deleted) entries from the clause lists. Cheap
    /// bookkeeping after bulk deletions; `compact` implies it.
    pub(crate) fn sweep_lists(&mut self) {
        let mut clause_list = std::mem::take(&mut self.clause_list);
        clause_list.retain(|&c| !self.is_deleted(c));
        self.clause_list = clause_list;
        let mut learnt_list = std::mem::take(&mut self.learnt_list);
        learnt_list.retain(|&c| !self.is_deleted(c));
        self.learnt_list = learnt_list;
    }

    /// Garbage-compacts the arena in place: live clauses slide down (in
    /// ascending offset order, so every move is leftward), garbage goes to
    /// zero, and insertion order of both clause lists is preserved.
    ///
    /// Returns the sorted `(old_offset, new_offset)` table; the solver must
    /// remap every `ClauseRef` it holds (reasons, watchers) through it via
    /// [`ClauseDb::remap_ref`].
    pub(crate) fn compact(&mut self) -> Vec<(u32, u32)> {
        self.sweep_lists();
        let mut refs: Vec<ClauseRef> = self
            .clause_list
            .iter()
            .chain(self.learnt_list.iter())
            .copied()
            .collect();
        refs.sort_unstable_by_key(|c| c.0);
        let mut remap: Vec<(u32, u32)> = Vec::with_capacity(refs.len());
        let mut dest = 0usize;
        for &old in &refs {
            let src = old.0 as usize;
            let words = HEADER_WORDS + self.size(old);
            debug_assert!(dest <= src, "compaction must only move clauses left");
            if src != dest {
                self.data.copy_within(src..src + words, dest);
            }
            remap.push((old.0, dest as u32));
            dest += words;
        }
        self.data.truncate(dest);
        self.garbage = 0;
        for c in self
            .clause_list
            .iter_mut()
            .chain(self.learnt_list.iter_mut())
        {
            *c = Self::remap_ref(&remap, *c);
        }
        remap
    }

    /// Looks up a pre-compaction ref in the table returned by
    /// [`ClauseDb::compact`].
    ///
    /// # Panics
    ///
    /// Panics if `cref` was not live at compaction time — holding a ref to a
    /// deleted clause across a compaction is a solver bug.
    #[inline]
    pub(crate) fn remap_ref(remap: &[(u32, u32)], cref: ClauseRef) -> ClauseRef {
        let idx = remap
            .binary_search_by_key(&cref.0, |&(old, _)| old)
            .expect("remapped ClauseRef must have been live at compaction");
        ClauseRef(remap[idx].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(n: usize) -> Vec<Lit> {
        (0..n).map(|i| Var::from_index(i).positive()).collect()
    }

    #[test]
    fn alloc_and_read_back() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&lits(3), false, 0, Tier::Core);
        assert_eq!(db.size(c), 3);
        assert_eq!(db.lits(c), lits(3).as_slice());
        assert!(!db.is_learnt(c));
        assert!(!db.is_deleted(c));
        assert_eq!(db.num_learnts(), 0);
        assert_eq!(db.num_clauses(), 1);
        assert_eq!(db.arena_words(), 5);
    }

    #[test]
    fn header_fields_are_independent() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&lits(2), true, 9, Tier::Local);
        assert!(db.is_learnt(c));
        assert_eq!(db.lbd(c), 9);
        assert_eq!(db.tier(c), Tier::Local);
        db.set_lbd(c, 3);
        db.set_tier(c, Tier::Mid);
        db.set_used(c);
        assert_eq!(db.lbd(c), 3);
        assert_eq!(db.tier(c), Tier::Mid);
        assert!(db.is_used(c));
        assert_eq!(db.size(c), 2, "size survives flag churn");
        db.clear_used(c);
        assert!(!db.is_used(c));
    }

    #[test]
    fn lbd_saturates_at_cap() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&lits(2), true, 100_000, Tier::Local);
        assert_eq!(db.lbd(c), LBD_CAP);
        assert_eq!(db.size(c), 2);
    }

    #[test]
    fn tier_accounting_tracks_moves_and_deletes() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(2), true, 8, Tier::Local);
        let b = db.alloc(&lits(3), true, 4, Tier::Mid);
        assert_eq!((db.num_learnts(), db.num_local()), (2, 1));
        db.set_tier(b, Tier::Local);
        assert_eq!(db.num_local(), 2);
        db.delete(a);
        assert_eq!((db.num_learnts(), db.num_local()), (1, 1));
        assert_eq!(db.learnt_refs(), vec![b]);
    }

    #[test]
    fn activity_roundtrips_through_bits() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&lits(2), true, 2, Tier::Core);
        assert_eq!(db.activity(c), 0.0);
        db.set_activity(c, 1.5);
        assert_eq!(db.activity(c), 1.5);
        db.rescale_activities(0.5);
        assert_eq!(db.activity(c), 0.75);
    }

    #[test]
    fn delete_is_lazy_until_compaction() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(2), true, 2, Tier::Local);
        let b = db.alloc(&lits(2), true, 2, Tier::Local);
        db.delete(a);
        // a's slot is still readable (proof logging needs the literals).
        assert_eq!(db.lits(a).len(), 2);
        assert!(db.is_deleted(a));
        assert_eq!(db.lits(b).len(), 2);
        assert_eq!(db.live_refs().count(), 1);
        assert_eq!(db.num_learnts(), 1);
    }

    #[test]
    fn compact_moves_live_clauses_left_and_remaps() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(3), false, 0, Tier::Core);
        let b = db.alloc(&lits(2), true, 5, Tier::Mid);
        let c = db.alloc(&lits(4), false, 0, Tier::Core);
        let b_lits = db.lits(b).to_vec();
        let c_lits = db.lits(c).to_vec();
        db.delete(a);
        let words_before = db.arena_words();
        let remap = db.compact();
        assert!(db.arena_words() < words_before);
        assert_eq!(db.garbage_frac(), 0.0);
        let nb = ClauseDb::remap_ref(&remap, b);
        let nc = ClauseDb::remap_ref(&remap, c);
        assert_eq!(db.lits(nb), b_lits.as_slice());
        assert_eq!(db.lits(nc), c_lits.as_slice());
        assert!(db.is_learnt(nb) && !db.is_learnt(nc));
        assert_eq!(db.tier(nb), Tier::Mid);
        assert_eq!(db.lbd(nb), 5);
        assert_eq!(db.live_refs().collect::<Vec<_>>(), vec![nc, nb]);
    }
}
