//! SatELite-style clause-database simplification.
//!
//! Implements the occurrence-index phases of [`crate::Solver::simplify`]:
//! top-level clause cleanup, backward subsumption, self-subsuming
//! resolution (strengthening) and bounded variable elimination (BVE) with
//! model reconstruction.
//!
//! All phases run at decision level 0 and mutate clauses in place, so watch
//! lists are stale while they run; unit literals discovered here are spread
//! through the occurrence index instead of the watches, and the caller
//! rebuilds the watch lists when the whole simplify round is done.
//!
//! BVE is the delicate part in an incremental solver. Eliminating `v`
//! replaces its clauses by all non-tautological resolvents on `v`, which
//! preserves satisfiability but forgets what `v` meant. Three mechanisms
//! keep the incremental interface sound:
//!
//! * the original clauses of `v` are stored on an elimination stack, and a
//!   satisfying assignment of the reduced formula is extended to `v` by
//!   walking that stack backwards (model reconstruction);
//! * frozen variables — assumptions, indicator variables registered via
//!   [`crate::Solver::freeze`] — are never eliminated;
//! * a new clause or assumption that mentions an eliminated variable
//!   triggers [`Solver::restore_var`], which re-adds the stored clauses
//!   (recursively restoring anything they mention) before the new
//!   constraint lands.

use std::collections::VecDeque;

use crate::clause::{ClauseRef, Tier};
use crate::lit::{LBool, Lit, Var};
use crate::occurs::OccIndex;
use crate::solver::Solver;

/// Variables occurring in more clauses than this are not elimination
/// candidates (resolvent computation would be quadratic in this count).
const ELIM_OCC_LIMIT: usize = 16;

/// Resolvents longer than this many literals block the elimination.
const ELIM_CLAUSE_LIMIT: usize = 24;

/// Resolvent of `p` (containing `v` positively) and `n` (containing `v`
/// negatively) on `v`; `None` if the resolvent is tautological.
fn resolve(p: &[Lit], n: &[Lit], v: Var) -> Option<Vec<Lit>> {
    let mut r: Vec<Lit> = Vec::with_capacity(p.len() + n.len() - 2);
    r.extend(p.iter().filter(|l| l.var() != v));
    r.extend(n.iter().filter(|l| l.var() != v));
    r.sort_unstable();
    r.dedup();
    for w in r.windows(2) {
        if w[1] == !w[0] {
            return None;
        }
    }
    Some(r)
}

impl Solver {
    /// The occurrence-index phases of a simplify round: cleanup, backward
    /// subsumption + strengthening, then bounded variable elimination.
    /// Returns `false` on a derived top-level conflict.
    pub(crate) fn simplify_with_occurrences(&mut self) -> bool {
        let mut occ = OccIndex::new(self.num_vars());
        let mut queue: VecDeque<ClauseRef> = VecDeque::new();
        let mut cursor = self.trail.len();
        let refs: Vec<ClauseRef> = self.db.live_refs().collect();
        for cref in refs {
            if self.db.is_learnt(cref) {
                continue; // learnt clauses are scrubbed in the final cleanup
            }
            let lits = self.db.lits(cref).to_vec();
            let mut satisfied = false;
            let mut kept: Vec<Lit> = Vec::with_capacity(lits.len());
            for &l in &lits {
                match self.lit_value(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => {}
                    LBool::Undef => kept.push(l),
                }
            }
            if satisfied {
                self.delete_clause_logged(cref);
                continue;
            }
            match kept.len() {
                0 => {
                    self.ok = false;
                    self.proof_empty();
                    return false;
                }
                1 => {
                    self.proof_add(&kept);
                    self.unchecked_enqueue(kept[0], None);
                    self.delete_clause_logged(cref);
                }
                _ => {
                    if kept.len() < lits.len() {
                        self.proof_add(&kept);
                        self.proof_delete(&lits);
                        self.db.shrink_clause(cref, &kept);
                    }
                    for &l in &kept {
                        occ.add(l, cref);
                    }
                    queue.push_back(cref);
                }
            }
        }
        if !self.occ_propagate(&mut occ, &mut cursor) {
            return false;
        }
        if !self.backward_subsume(&mut occ, &mut queue, &mut cursor) {
            return false;
        }
        self.eliminate_variables(&mut occ, &mut cursor)
    }

    /// Spreads top-level units through the occurrence index: clauses
    /// containing a true literal are deleted, false literals are stripped,
    /// and clauses shrinking to units cascade.
    fn occ_propagate(&mut self, occ: &mut OccIndex, cursor: &mut usize) -> bool {
        while *cursor < self.trail.len() {
            let p = self.trail[*cursor];
            *cursor += 1;
            for cref in occ.take(p) {
                if self.db.is_deleted(cref) {
                    continue;
                }
                let lits = self.db.lits(cref).to_vec();
                for &l in &lits {
                    if l != p {
                        occ.remove(l, cref);
                    }
                }
                self.db.delete(cref);
                self.proof_delete(&lits);
            }
            for cref in occ.take(!p) {
                if self.db.is_deleted(cref) {
                    continue;
                }
                // Stripping the falsified literal is an add-then-delete in
                // the proof stream: the shortened clause is RUP (the old
                // clause plus the unit `p`), after which the old one may go.
                let old = if self.proof_active() {
                    Some(self.db.lits(cref).to_vec())
                } else {
                    None
                };
                let lits: Vec<Lit> = self
                    .db
                    .lits(cref)
                    .iter()
                    .copied()
                    .filter(|&l| l != !p)
                    .collect();
                self.db.shrink_clause(cref, &lits);
                debug_assert!(!lits.is_empty());
                if let Some(old) = &old {
                    self.proof_add(&lits);
                    self.proof_delete(old);
                }
                if lits.len() == 1 {
                    let u = lits[0];
                    occ.remove(u, cref);
                    self.db.delete(cref);
                    match self.lit_value(u) {
                        LBool::True => {}
                        LBool::False => {
                            self.ok = false;
                            self.proof_empty();
                            return false;
                        }
                        LBool::Undef => self.unchecked_enqueue(u, None),
                    }
                }
            }
        }
        true
    }

    /// Backward subsumption and self-subsuming resolution. For each queued
    /// clause `C`, every clause sharing a variable with `C`'s rarest
    /// literal is checked: if `C ⊆ D` then `D` is deleted; if `C` matches
    /// `D` except for exactly one negated literal, that literal is removed
    /// from `D` (resolution of `D` with `C` subsumes `D`).
    fn backward_subsume(
        &mut self,
        occ: &mut OccIndex,
        queue: &mut VecDeque<ClauseRef>,
        cursor: &mut usize,
    ) -> bool {
        while let Some(cref) = queue.pop_front() {
            if self.db.is_deleted(cref) {
                continue;
            }
            let lits = self.db.lits(cref).to_vec();
            let best = *lits
                .iter()
                .min_by_key(|l| occ.var_occurrences(**l))
                .expect("live clause is non-empty");
            let mut cands: Vec<ClauseRef> = occ.list(best).to_vec();
            cands.extend_from_slice(occ.list(!best));
            for d in cands {
                if d == cref || self.db.is_deleted(d) {
                    continue;
                }
                if self.db.size(d) < lits.len() {
                    continue;
                }
                // Match every literal of C inside D, allowing at most one
                // to appear negated.
                let mut flipped: Option<Lit> = None;
                let mut related = true;
                {
                    let dlits = self.db.lits(d);
                    for &l in &lits {
                        if dlits.contains(&l) {
                            continue;
                        }
                        if flipped.is_none() && dlits.contains(&!l) {
                            flipped = Some(!l);
                            continue;
                        }
                        related = false;
                        break;
                    }
                }
                if !related {
                    continue;
                }
                match flipped {
                    None => {
                        let dl = self.db.lits(d).to_vec();
                        for &l in &dl {
                            occ.remove(l, d);
                        }
                        self.db.delete(d);
                        self.proof_delete(&dl);
                        self.stats.subsumed_clauses += 1;
                    }
                    Some(rm) => {
                        self.stats.strengthened_lits += 1;
                        occ.remove(rm, d);
                        // Self-subsuming resolution as add-then-delete: the
                        // strengthened clause is RUP from `C` and the old
                        // `D`, both still present when the add is checked.
                        let old = if self.proof_active() {
                            Some(self.db.lits(d).to_vec())
                        } else {
                            None
                        };
                        let dl: Vec<Lit> = self
                            .db
                            .lits(d)
                            .iter()
                            .copied()
                            .filter(|&l| l != rm)
                            .collect();
                        self.db.shrink_clause(d, &dl);
                        if let Some(old) = &old {
                            self.proof_add(&dl);
                            self.proof_delete(old);
                        }
                        if dl.len() == 1 {
                            let u = dl[0];
                            occ.remove(u, d);
                            self.db.delete(d);
                            match self.lit_value(u) {
                                LBool::True => {}
                                LBool::False => {
                                    self.ok = false;
                                    self.proof_empty();
                                    return false;
                                }
                                LBool::Undef => {
                                    self.unchecked_enqueue(u, None);
                                    if !self.occ_propagate(occ, cursor) {
                                        return false;
                                    }
                                }
                            }
                        } else {
                            queue.push_back(d);
                        }
                    }
                }
            }
        }
        self.ok
    }

    /// Bounded variable elimination: replaces each cheap, unfrozen variable
    /// by the resolvents of its positive and negative occurrence lists
    /// whenever that does not grow the clause database.
    fn eliminate_variables(&mut self, occ: &mut OccIndex, cursor: &mut usize) -> bool {
        for idx in 0..self.num_vars() {
            let v = Var::from_index(idx);
            if self.frozen[idx] || self.eliminated[idx] || self.assigns[idx] != LBool::Undef {
                continue;
            }
            let pos: Vec<ClauseRef> = occ.list(v.positive()).to_vec();
            let neg: Vec<ClauseRef> = occ.list(v.negative()).to_vec();
            let budget = pos.len() + neg.len();
            if budget == 0 || budget > ELIM_OCC_LIMIT {
                continue;
            }
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            let mut blocked = false;
            'pairs: for &p in &pos {
                for &n in &neg {
                    if let Some(r) = resolve(self.db.lits(p), self.db.lits(n), v) {
                        if r.len() > ELIM_CLAUSE_LIMIT || resolvents.len() == budget {
                            blocked = true;
                            break 'pairs;
                        }
                        resolvents.push(r);
                    }
                }
            }
            if blocked {
                continue;
            }
            // Commit: store and remove the variable's clauses, then add the
            // resolvents.
            //
            // Proof logging: the removals are deliberately *not* streamed as
            // DRAT deletions. [`Solver::restore_var`] may later re-add these
            // exact clauses, and those re-additions are only trivially
            // checkable if the checker still holds the originals; deletions
            // are optional hints, so withholding them is always sound. The
            // resolvent additions below *are* logged — each is RUP from its
            // two (still-present) parents.
            let mut stored: Vec<Vec<Lit>> = Vec::with_capacity(budget);
            for &cref in pos.iter().chain(neg.iter()) {
                let lits = self.db.lits(cref).to_vec();
                for &l in &lits {
                    occ.remove(l, cref);
                }
                stored.push(lits);
                self.db.delete(cref);
            }
            self.elim_stack.push((v, stored));
            self.eliminated[idx] = true;
            self.stats.eliminated_vars += 1;
            for r in resolvents {
                if !r.is_empty() {
                    self.proof_add(&r);
                }
                match r.len() {
                    0 => {
                        self.ok = false;
                        self.proof_empty();
                        return false;
                    }
                    1 => match self.lit_value(r[0]) {
                        LBool::True => {}
                        LBool::False => {
                            self.ok = false;
                            self.proof_empty();
                            return false;
                        }
                        LBool::Undef => self.unchecked_enqueue(r[0], None),
                    },
                    _ => {
                        let new_ref = self.db.alloc(&r, false, 0, Tier::Core);
                        for &l in &r {
                            occ.add(l, new_ref);
                        }
                    }
                }
            }
            if !self.occ_propagate(occ, cursor) {
                return false;
            }
        }
        self.ok
    }

    /// Scrubs every live clause (learnt ones included) against the
    /// top-level assignment after the occurrence phases: satisfied clauses
    /// are deleted, false literals stripped, learnt clauses mentioning
    /// eliminated variables dropped. Loops until no new top-level unit is
    /// produced, leaving every live clause ≥ 2 unassigned literals — the
    /// invariant watch-list reconstruction needs.
    pub(crate) fn final_cleanup(&mut self) -> bool {
        loop {
            let mark = self.trail.len();
            let refs: Vec<ClauseRef> = self.db.live_refs().collect();
            for cref in refs {
                if self.db.is_learnt(cref)
                    && self
                        .db
                        .lits(cref)
                        .iter()
                        .any(|l| self.eliminated[l.var().index()])
                {
                    self.delete_clause_logged(cref);
                    self.stats.deleted_clauses += 1;
                    continue;
                }
                let lits = self.db.lits(cref).to_vec();
                let mut satisfied = false;
                let mut kept: Vec<Lit> = Vec::with_capacity(lits.len());
                for &l in &lits {
                    match self.lit_value(l) {
                        LBool::True => {
                            satisfied = true;
                            break;
                        }
                        LBool::False => {}
                        LBool::Undef => kept.push(l),
                    }
                }
                if satisfied {
                    self.delete_clause_logged(cref);
                    continue;
                }
                match kept.len() {
                    0 => {
                        self.ok = false;
                        self.proof_empty();
                        return false;
                    }
                    1 => {
                        self.proof_add(&kept);
                        self.unchecked_enqueue(kept[0], None);
                        self.delete_clause_logged(cref);
                    }
                    _ => {
                        if kept.len() < lits.len() {
                            self.proof_add(&kept);
                            self.proof_delete(&lits);
                            self.db.shrink_clause(cref, &kept);
                        }
                    }
                }
            }
            if self.trail.len() == mark {
                break;
            }
        }
        true
    }

    /// Re-introduces an eliminated variable by re-adding its stored
    /// clauses. Recursive through [`Solver::add_clause`]: stored clauses
    /// may mention variables eliminated later, which are then restored
    /// too. Returns `false` if re-adding exposed a top-level conflict.
    pub(crate) fn restore_var(&mut self, v: Var) -> bool {
        debug_assert!(self.eliminated[v.index()]);
        let pos = self
            .elim_stack
            .iter()
            .position(|(u, _)| *u == v)
            .expect("eliminated variable has an elimination record");
        let (_, clauses) = self.elim_stack.remove(pos);
        self.eliminated[v.index()] = false;
        self.stats.restored_vars += 1;
        // The decision queue skipped the variable while eliminated; it is
        // free again, so the search cursor may have to move back up to it.
        self.order.on_free(v);
        for c in &clauses {
            if !self.add_clause(c) {
                return false;
            }
        }
        self.ok
    }

    /// Extends the model found by search to eliminated variables, in
    /// reverse elimination order: a variable defaults to false unless one
    /// of its stored clauses has every other literal false, in which case
    /// the clause's own literal decides the value. Because BVE added every
    /// non-tautological resolvent, the stored clauses can never force both
    /// polarities under a model of the reduced formula.
    pub(crate) fn extend_model(&mut self) {
        if self.elim_stack.is_empty() {
            return;
        }
        let stack = std::mem::take(&mut self.elim_stack);
        for (v, clauses) in stack.iter().rev() {
            let mut value = LBool::False;
            'clauses: for c in clauses {
                let mut own = None;
                for &l in c {
                    if l.var() == *v {
                        own = Some(l);
                        continue;
                    }
                    match self.model[l.var().index()].of_lit(l) {
                        LBool::True => continue 'clauses,
                        LBool::False => {}
                        LBool::Undef => {
                            unreachable!("reconstruction order leaves no literal unassigned")
                        }
                    }
                }
                let l = own.expect("stored clause mentions its eliminated variable");
                value = LBool::from_bool(l.is_positive());
            }
            self.model[v.index()] = value;
        }
        self.elim_stack = stack;
    }
}
