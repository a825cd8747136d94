//! Clause vivification (distillation) at decision level 0.
//!
//! For each long clause `C = l1 ∨ … ∨ ln`, the negations of its literals
//! are assumed one at a time at a throwaway decision level and
//! unit-propagated (with `C` itself detached so it cannot propagate
//! against itself). The propagation outcome after assuming
//! `¬l1, …, ¬lk` decides the clause's fate:
//!
//! * some `li` was already **true at level 0** — `C` is satisfied outright
//!   and deleted;
//! * `li` became **true under the probe** — `¬l1 ∧ … ∧ ¬l(i-1) ⊢ li`, so
//!   the prefix `l1 ∨ … ∨ li` is implied by the rest of the formula and
//!   replaces `C` (the dropped tail is the strengthening);
//! * `li` became **false** — `li` is redundant in `C` (resolving on it
//!   stays within `C`'s other literals), so it is dropped and probing
//!   continues;
//! * propagation hit a **conflict** — the assumed prefix is contradictory,
//!   so the prefix clause `l1 ∨ … ∨ lk` replaces `C`.
//!
//! Every kept prefix is derivable by reverse unit propagation from the
//! formula (with `C` still present for the redundant-literal case), so
//! each rewrite is DRAT-logged as *add strengthened, then delete
//! original* — the order the independent checker needs. The pass runs at
//! the end of [`Solver::simplify`], after the occurrence-based phases
//! have already scrubbed the clause set and the watch lists have been
//! rebuilt, and is bounded by [`crate::Config::vivify_budget`]
//! propagations so its cost stays proportional on huge instances while
//! remaining a pure function of the query history (determinism).

use crate::clause::ClauseRef;
use crate::lit::{LBool, Lit};
use crate::solver::Solver;

/// What probing one candidate clause concluded.
enum Fate {
    /// A literal was true at level 0: the clause is permanently satisfied.
    Satisfied,
    /// The clause survives with this (possibly shorter) literal set.
    Keep(Vec<Lit>),
}

impl Solver {
    /// Runs one budgeted vivification pass over the long live clauses.
    /// Expects consistent watch lists and a fully propagated level-0 trail;
    /// leaves both in the same state. Returns `false` if a top-level
    /// conflict was derived (the formula is unsatisfiable).
    pub(crate) fn vivify_clauses(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        let mut budget = self.config.vivify_budget.get();
        // Probing assumes and unwinds thousands of literals, and every
        // unwind writes the probe polarity into the saved phases (and may
        // snapshot a deep probe trail as the best-phase target). Those
        // polarities are search state, not probe state — losing them makes
        // the next incremental query re-derive its warm start from scratch —
        // so the pass restores them wholesale when it finishes.
        let saved_phase = self.phase.clone();
        let saved_best_phase = self.best_phase.clone();
        let saved_best_trail = self.best_trail;
        // Snapshot the candidates: rewrites allocate nothing, so refs stay
        // stable until a compaction, which only happens after the pass.
        // Longest clauses first: they carry the most redundant literals, so
        // the budget strengthens more before it runs out.
        let mut cands: Vec<ClauseRef> = self
            .db
            .live_refs()
            .filter(|&c| self.db.size(c) >= 3)
            .collect();
        cands.sort_by_key(|&c| std::cmp::Reverse(self.db.size(c)));
        for cref in cands {
            if budget == 0 {
                break;
            }
            // A unit derived from an earlier candidate may have deleted or
            // shrunk this one via propagation bookkeeping; re-check.
            if self.db.is_deleted(cref) || self.db.size(cref) < 3 {
                continue;
            }
            let lits: Vec<Lit> = self.db.lits(cref).to_vec();
            // Detach so the candidate cannot propagate against itself while
            // its own negated literals are assumed.
            self.detach_long(cref);
            let before = self.stats.propagations;
            let fate = self.probe_clause(&lits);
            budget = budget.saturating_sub(self.stats.propagations - before + 1);
            match fate {
                Fate::Satisfied => {
                    self.stats.vivified_deleted += 1;
                    self.delete_clause_logged(cref);
                }
                Fate::Keep(kept) => {
                    if !self.apply_rewrite(cref, &lits, kept) {
                        return false;
                    }
                }
            }
        }
        // Vivification units propagate at level 0 and record their
        // antecedents as reasons; top-level assignments need none, and the
        // compaction that may follow must not have to remap a clause a
        // later candidate deleted.
        for i in 0..self.trail.len() {
            let v = self.trail[i].var();
            self.reason[v.index()] = None;
        }
        self.phase = saved_phase;
        self.best_phase = saved_best_phase;
        self.best_trail = saved_best_trail;
        true
    }

    /// Assumes the negation of each literal in turn at a throwaway level,
    /// classifying the clause per the module rules. The clause itself must
    /// be detached. Restores level 0 before returning.
    fn probe_clause(&mut self, lits: &[Lit]) -> Fate {
        let mut kept: Vec<Lit> = Vec::with_capacity(lits.len());
        let mut satisfied = false;
        self.trail_lim.push(self.trail.len());
        for &l in lits {
            match self.lit_value(l) {
                LBool::True if self.level[l.var().index()] == 0 => {
                    satisfied = true;
                    break;
                }
                LBool::True => {
                    // ¬(kept so far) propagated l: the prefix ending at l
                    // is implied without the clause — drop the tail.
                    kept.push(l);
                    break;
                }
                LBool::False => {
                    // l is falsified by the assumed prefix alone, so it is
                    // redundant (RUP with the clause still present).
                }
                LBool::Undef => {
                    kept.push(l);
                    self.unchecked_enqueue(!l, None);
                    if self.propagate().is_some() {
                        // The assumed prefix is contradictory: it alone is
                        // a valid (RUP) replacement clause.
                        break;
                    }
                }
            }
        }
        self.cancel_until(0);
        if satisfied {
            Fate::Satisfied
        } else {
            Fate::Keep(kept)
        }
    }

    /// Installs the probing verdict for a detached candidate: reattach if
    /// unchanged, otherwise log add-then-delete and shrink in place (or
    /// assert the unit / refute the formula for degenerate sizes). Returns
    /// `false` on a derived top-level conflict.
    fn apply_rewrite(&mut self, cref: ClauseRef, old: &[Lit], kept: Vec<Lit>) -> bool {
        if kept.len() == old.len() {
            // Nothing learned; kept == old because drops and early breaks
            // both shorten the prefix.
            self.attach(cref);
            return true;
        }
        self.stats.vivified_lits += (old.len() - kept.len()) as u64;
        match kept.len() {
            0 => {
                // Every literal was false at level 0: the formula is
                // unsatisfiable outright.
                self.ok = false;
                self.proof_empty();
                false
            }
            1 => {
                self.stats.vivified_deleted += 1;
                self.proof_add(&kept);
                self.delete_clause_logged(cref);
                // `kept[0]` cannot be assigned: a true value would have
                // satisfied the probe, a false one would have emptied it.
                self.unchecked_enqueue(kept[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                    self.proof_empty();
                    return false;
                }
                true
            }
            _ => {
                self.proof_add(&kept);
                self.proof_delete(old);
                self.db.shrink_clause(cref, &kept);
                // All kept literals are unassigned at level 0 (assigned
                // ones end the probe), so watching the first two is valid.
                // A clause shrunk to binary routes to the binary lists
                // through `attach`'s own size check.
                self.attach(cref);
                true
            }
        }
    }
}
