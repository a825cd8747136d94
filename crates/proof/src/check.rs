//! A standalone forward DRAT checker.
//!
//! Verifies that a [`ProofLine`] stream refutes a CNF formula, trusting
//! nothing about the producing solver. Each added clause is checked for the
//! RUP property (assume the negation of every literal, unit-propagate,
//! expect a conflict) and, failing that, for RAT on its first literal
//! (every resolvent on the pivot must itself be RUP). Propagation uses
//! two-watched literals; deletions are resolved through a hash index from
//! sorted literal vectors to clause slots, built from the live clauses when
//! the first deletion arrives (the streams `hh-sat` emits for certificate
//! obligations contain none, and then the index is never built).
//!
//! Memory is linear in the input: an added clause may only name variables
//! below the formula's variable count plus the number of literal
//! occurrences in the proof's additions (a proof cannot introduce more
//! fresh variables than it adds literals), so a hostile stream cannot make
//! the per-variable tables larger than the stream itself.
//!
//! Deletion conventions (matching `drat-trim`):
//!
//! * deleting a unit or empty clause is ignored,
//! * deleting a clause that is the reason of a top-level propagation is
//!   ignored (retracting the propagation would be unsound bookkeeping),
//! * deleting a clause not currently in the formula is ignored.
//!
//! All three only *weaken* the deletion information, which for a forward
//! checker is always sound. Once the empty clause has been verified the
//! remainder of the stream is irrelevant and is skipped.

use crate::drat::ProofLine;
use hh_sat::Lit;
use std::collections::HashMap;

/// Counters describing a successful check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Proof lines consumed (including any skipped after refutation).
    pub lines: usize,
    /// Clause additions verified.
    pub adds: usize,
    /// Clause deletions applied.
    pub deletes: usize,
    /// Additions that needed the RAT fallback (zero for the pure-RUP
    /// streams `hh-sat` emits).
    pub rat_steps: usize,
    /// Deletions ignored per the conventions above.
    pub ignored_deletes: usize,
}

/// Why a proof failed to check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// An added clause is neither RUP nor RAT at its position.
    NotRedundant {
        /// 0-based index of the offending line in the proof.
        line: usize,
        /// The clause that failed the check.
        clause: Vec<Lit>,
    },
    /// The stream ended without deriving (or implying) the empty clause.
    NoRefutation,
    /// An added clause names a variable the proof cannot have introduced:
    /// its index is not below the formula's variable count plus the literal
    /// occurrences of the proof's additions.
    VariableOutOfRange {
        /// 0-based index of the offending line in the proof.
        line: usize,
        /// The offending literal.
        lit: Lit,
        /// The exclusive bound on variable indices for this check.
        bound: usize,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::NotRedundant { line, clause } => {
                write!(f, "proof line {line}: clause {clause:?} is not RUP/RAT")
            }
            CheckError::NoRefutation => write!(f, "proof does not derive the empty clause"),
            CheckError::VariableOutOfRange { line, lit, bound } => write!(
                f,
                "proof line {line}: literal {lit} names a variable outside the {bound} \
                 this formula and proof can use"
            ),
        }
    }
}

impl std::error::Error for CheckError {}

#[derive(Debug)]
struct CClause {
    lits: Vec<Lit>,
    active: bool,
}

#[derive(Debug, Default)]
struct Checker {
    clauses: Vec<CClause>,
    /// Watch lists by literal code; entries are clause slots. Lazily pruned.
    watches: Vec<Vec<usize>>,
    /// Per-variable value: 0 unassigned, 1 positive true, -1 positive false.
    assigns: Vec<i8>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Sorted-literal key -> active clause slots (for deletions). `None`
    /// until the first deletion builds it from the live clauses; kept up to
    /// date by `install` from then on.
    index: Option<HashMap<Vec<Lit>, Vec<usize>>>,
    /// Slot of the clause that propagated each trail literal (by var).
    /// Entries for temporary (in-check) assignments are erased on undo, so
    /// at deletion time only top-level reasons remain.
    reason: Vec<Option<usize>>,
    refuted: bool,
    stats: CheckStats,
}

impl Checker {
    fn new(num_vars: usize) -> Checker {
        Checker {
            watches: vec![Vec::new(); 2 * num_vars],
            assigns: vec![0; num_vars],
            reason: vec![None; num_vars],
            ..Checker::default()
        }
    }

    #[inline]
    fn value(&self, l: Lit) -> i8 {
        let v = self.assigns[l.var().index()];
        if l.is_positive() {
            v
        } else {
            -v
        }
    }

    #[inline]
    fn assign(&mut self, l: Lit, reason: Option<usize>) {
        debug_assert_eq!(self.value(l), 0);
        self.assigns[l.var().index()] = if l.is_positive() { 1 } else { -1 };
        self.reason[l.var().index()] = reason;
        self.trail.push(l);
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let l = self.trail.pop().unwrap();
            self.assigns[l.var().index()] = 0;
            self.reason[l.var().index()] = None;
        }
        self.qhead = mark;
    }

    /// Unit propagation to fixpoint. Returns `true` on conflict.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let ci = ws[i];
                i += 1;
                if !self.clauses[ci].active {
                    continue; // deleted: drop the watch entry
                }
                let false_lit = !p;
                {
                    let c = &mut self.clauses[ci];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    if c.lits[1] != false_lit {
                        // Stale entry from an earlier watch move; drop it.
                        continue;
                    }
                }
                let first = self.clauses[ci].lits[0];
                if self.value(first) == 1 {
                    ws[j] = ci;
                    j += 1;
                    continue;
                }
                let len = self.clauses[ci].lits.len();
                for k in 2..len {
                    let lk = self.clauses[ci].lits[k];
                    if self.value(lk) != -1 {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[(!lk).code()].push(ci);
                        continue 'watchers;
                    }
                }
                // Unit or conflicting.
                ws[j] = ci;
                j += 1;
                if self.value(first) == -1 {
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    ws.truncate(j);
                    self.watches[p.code()] = ws;
                    return true;
                }
                self.assign(first, Some(ci));
            }
            ws.truncate(j);
            self.watches[p.code()] = ws;
        }
        false
    }

    /// Installs a clause as an axiom (input formula, assumption unit, or a
    /// just-verified addition). May set `refuted` if the clause conflicts
    /// with the fixed assignment outright.
    fn install(&mut self, mut lits: Vec<Lit>) {
        if lits.is_empty() {
            self.refuted = true;
            return;
        }
        if lits.len() == 1 {
            match self.value(lits[0]) {
                1 => {}
                -1 => self.refuted = true,
                _ => {
                    self.assign(lits[0], None);
                    if self.propagate() {
                        self.refuted = true;
                    }
                }
            }
            return;
        }
        // Put two non-false literals up front so the watch invariant holds;
        // if fewer exist the clause is unit/conflicting under the fixed
        // assignment and is handled as such.
        let mut nonfalse = 0;
        for k in 0..lits.len() {
            if self.value(lits[k]) != -1 {
                lits.swap(nonfalse, k);
                nonfalse += 1;
                if nonfalse == 2 {
                    break;
                }
            }
        }
        let slot = self.clauses.len();
        match nonfalse {
            0 => {
                self.refuted = true;
                return;
            }
            1 if self.value(lits[0]) == 0 => {
                self.assign(lits[0], None);
                if self.propagate() {
                    self.refuted = true;
                }
            }
            _ => {}
        }
        self.watches[(!lits[0]).code()].push(slot);
        self.watches[(!lits[1]).code()].push(slot);
        if let Some(index) = &mut self.index {
            index.entry(deletion_key(&lits)).or_default().push(slot);
        }
        self.clauses.push(CClause { lits, active: true });
    }

    /// The deletion index over the live clauses, slots in installation
    /// order. Built when the first deletion arrives, it is exactly the map
    /// that indexing every clause as it was installed would have produced,
    /// because no deletion has been applied before the first one.
    fn build_deletion_index(&self) -> HashMap<Vec<Lit>, Vec<usize>> {
        let mut index: HashMap<Vec<Lit>, Vec<usize>> = HashMap::new();
        for (slot, c) in self.clauses.iter().enumerate() {
            if c.active {
                index.entry(deletion_key(&c.lits)).or_default().push(slot);
            }
        }
        index
    }

    /// Whether clause `slot` is the reason of a fixed propagation.
    fn is_reason(&self, slot: usize) -> bool {
        self.clauses[slot]
            .lits
            .iter()
            .any(|l| self.value(*l) == 1 && self.reason[l.var().index()] == Some(slot))
    }

    /// RUP check: assume the negation of `c` on top of the current fixed
    /// assignment and propagate. Leaves the temporary assignments on the
    /// trail iff `keep` (used to layer RAT resolvent checks on top);
    /// returns `true` if a conflict was reached.
    fn rup(&mut self, c: &[Lit], keep: bool) -> bool {
        let mark = self.trail.len();
        let mut conflict = false;
        for &l in c {
            match self.value(l) {
                1 => {
                    conflict = true;
                    break;
                }
                -1 => {}
                _ => self.assign(!l, None),
            }
        }
        if !conflict {
            conflict = self.propagate();
        }
        if conflict || !keep {
            self.undo_to(mark);
        }
        conflict
    }

    /// Verifies one clause addition: RUP, then RAT on the first literal.
    fn check_add(&mut self, c: &[Lit]) -> bool {
        let mark = self.trail.len();
        if self.rup(c, true) {
            return true; // rup() already unwound the trail on conflict
        }
        // The negated-clause assignment (plus its propagation) is still on
        // the trail for the RAT resolvent checks: RAT is defined w.r.t. the
        // full negation of C, so each candidate resolvent only extends it.
        let Some(&pivot) = c.first() else {
            self.undo_to(mark);
            return false; // empty clause failed RUP: nothing to pivot on
        };
        let resolvers: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| self.clauses[i].active && self.clauses[i].lits.contains(&!pivot))
            .collect();
        let mut ok = true;
        for d in resolvers {
            let dl = self.clauses[d].lits.clone();
            let mut conflict = false;
            let m2 = self.trail.len();
            for &l in &dl {
                if l == !pivot {
                    continue;
                }
                match self.value(l) {
                    1 => {
                        conflict = true;
                        break;
                    }
                    -1 => {}
                    _ => self.assign(!l, None),
                }
            }
            if !conflict {
                conflict = self.propagate();
            }
            self.undo_to(m2);
            if !conflict {
                ok = false;
                break;
            }
        }
        self.stats.rat_steps += 1;
        self.undo_to(mark);
        ok
    }

    /// Installs `formula ∧ assumptions`, then consumes `proof` line by line.
    fn run(
        &mut self,
        formula: Vec<Vec<Lit>>,
        assumptions: &[Lit],
        proof: &[ProofLine],
    ) -> Result<CheckStats, CheckError> {
        for mut c in formula {
            c.sort_unstable();
            c.dedup();
            if c.windows(2).any(|w| w[1] == !w[0]) {
                continue; // tautology: never constrains anything
            }
            self.install(c);
            if self.refuted {
                break;
            }
        }
        for &a in assumptions {
            if self.refuted {
                break;
            }
            self.install(vec![a]);
        }
        if !self.refuted && self.propagate() {
            self.refuted = true;
        }
        for (i, line) in proof.iter().enumerate() {
            self.stats.lines = i + 1;
            if self.refuted {
                self.stats.lines = proof.len();
                break;
            }
            match line {
                ProofLine::Add(c) => {
                    if !self.check_add(c) {
                        return Err(CheckError::NotRedundant {
                            line: i,
                            clause: c.clone(),
                        });
                    }
                    self.stats.adds += 1;
                    self.install(c.clone());
                }
                ProofLine::Delete(c) => self.delete(c),
            }
        }
        if self.refuted {
            Ok(self.stats)
        } else {
            Err(CheckError::NoRefutation)
        }
    }

    fn delete(&mut self, lits: &[Lit]) {
        if lits.len() <= 1 {
            self.stats.ignored_deletes += 1;
            return;
        }
        let mut key = deletion_key(lits);
        key.dedup();
        let mut index = self
            .index
            .take()
            .unwrap_or_else(|| self.build_deletion_index());
        // Skip slots that are the reason of a fixed propagation.
        let chosen = index.get_mut(&key).and_then(|slots| {
            let pos = slots.iter().position(|&slot| !self.is_reason(slot))?;
            Some((slots.swap_remove(pos), slots.is_empty()))
        });
        match chosen {
            Some((slot, last)) => {
                if last {
                    index.remove(&key);
                }
                self.clauses[slot].active = false;
                self.stats.deletes += 1;
            }
            None => self.stats.ignored_deletes += 1,
        }
        self.index = Some(index);
    }
}

/// The key a clause is filed under in the deletion index: its literals in
/// sorted order.
fn deletion_key(lits: &[Lit]) -> Vec<Lit> {
    let mut key = lits.to_vec();
    key.sort_unstable();
    key
}

/// The number of variables the check needs tables for, or the first added
/// clause with a literal that is out of range. Additions may name every
/// variable of the formula and the assumptions, plus at most one fresh
/// variable per literal they contain — so the tables stay linear in the
/// size of the input however large a variable index a hostile stream spells
/// out. Deletions are looked up by key and never index a table, so they are
/// not bounded (a deletion naming an unknown variable matches nothing).
fn num_vars(
    formula: &[Vec<Lit>],
    assumptions: &[Lit],
    proof: &[ProofLine],
) -> Result<usize, CheckError> {
    let top = |lits: &[Lit]| lits.iter().map(|l| l.var().index() + 1).max().unwrap_or(0);
    let given = formula.iter().map(|c| top(c)).max().unwrap_or(0);
    let given = given.max(top(assumptions));
    let adds = || {
        proof.iter().enumerate().filter_map(|(i, line)| match line {
            ProofLine::Add(c) => Some((i, c)),
            ProofLine::Delete(_) => None,
        })
    };
    let bound = given.saturating_add(adds().map(|(_, c)| c.len()).sum());
    let mut used = given;
    for (line, c) in adds() {
        if let Some(&lit) = c.iter().find(|l| l.var().index() >= bound) {
            return Err(CheckError::VariableOutOfRange { line, lit, bound });
        }
        used = used.max(top(c));
    }
    Ok(used)
}

/// Checks that `proof` refutes `formula`.
///
/// # Errors
///
/// [`CheckError::NotRedundant`] if an addition fails RUP/RAT,
/// [`CheckError::NoRefutation`] if the stream never reaches (or implies)
/// the empty clause, [`CheckError::VariableOutOfRange`] if an added clause
/// names a variable beyond what the formula and proof can use.
pub fn check_proof(formula: &[Vec<Lit>], proof: &[ProofLine]) -> Result<CheckStats, CheckError> {
    check_proof_with_assumptions(formula, &[], proof)
}

/// Checks that `proof` refutes `formula ∧ assumptions`.
///
/// This is the consumer side of `hh-sat`'s assumption wrapper: the solver
/// logs the final-core literals as unit additions before the empty clause,
/// and those units are justified here by installing the assumption set as
/// axioms first. Passing the solver's reported core (or any superset, e.g.
/// the full assumption list) makes the stream a plain RUP refutation.
///
/// # Errors
///
/// Same as [`check_proof`].
pub fn check_proof_with_assumptions(
    formula: &[Vec<Lit>],
    assumptions: &[Lit],
    proof: &[ProofLine],
) -> Result<CheckStats, CheckError> {
    check_refutation(formula.to_vec(), assumptions, proof)
}

/// [`check_proof_with_assumptions`] over a formula the caller gives away:
/// its clauses are normalised in place and become the checker's clause
/// store, with no second copy.
pub(crate) fn check_refutation(
    formula: Vec<Vec<Lit>>,
    assumptions: &[Lit],
    proof: &[ProofLine],
) -> Result<CheckStats, CheckError> {
    let _span = hh_trace::span!("proof", "proof.check");
    let mut ck = Checker::new(num_vars(&formula, assumptions, proof)?);
    let verdict = ck.run(formula, assumptions, proof);
    if hh_trace::enabled() {
        hh_trace::counter!("proof", "proof.check.lines", ck.stats.lines as u64);
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_sat::Var;

    fn lit(n: i64) -> Lit {
        Var::from_index(n.unsigned_abs() as usize - 1).lit(n > 0)
    }

    fn cl(ns: &[i64]) -> Vec<Lit> {
        ns.iter().map(|&n| lit(n)).collect()
    }

    /// The classic pigeonhole-ish RUP example: formula and a hand-written
    /// refutation.
    fn tiny_unsat() -> (Vec<Vec<Lit>>, Vec<ProofLine>) {
        let formula = vec![cl(&[1, 2]), cl(&[1, -2]), cl(&[-1, 2]), cl(&[-1, -2])];
        let proof = vec![ProofLine::Add(cl(&[1])), ProofLine::Add(vec![])];
        (formula, proof)
    }

    #[test]
    fn accepts_valid_rup_proof() {
        let (f, p) = tiny_unsat();
        let stats = check_proof(&f, &p).unwrap();
        // Installing the verified unit [1] propagates straight to a
        // conflict, so the trailing empty-clause line is consumed as
        // already-implied rather than checked as a second addition.
        assert_eq!(stats.adds, 1);
        assert_eq!(stats.lines, 2);
        assert_eq!(stats.rat_steps, 0);
    }

    #[test]
    fn rejects_non_rup_addition() {
        // [1] is not RUP (propagation of ¬1 only gives 2) and not RAT on 1
        // (the resolvent with [-1, 3] leaves 3 unconstrained).
        let f = vec![cl(&[1, 2]), cl(&[-1, 3])];
        let p = vec![ProofLine::Add(cl(&[1])), ProofLine::Add(vec![])];
        match check_proof(&f, &p) {
            Err(CheckError::NotRedundant { line: 0, .. }) => {}
            other => panic!("expected NotRedundant, got {other:?}"),
        }
    }

    #[test]
    fn vacuous_rat_is_accepted_but_empty_clause_still_fails() {
        // [1] has no resolution partners on ¬1, so it is vacuously RAT and
        // accepted (standard DRAT semantics) — but the formula stays
        // satisfiable, so the final empty clause must be rejected.
        let f = vec![cl(&[1, 2])];
        let p = vec![ProofLine::Add(cl(&[1])), ProofLine::Add(vec![])];
        match check_proof(&f, &p) {
            Err(CheckError::NotRedundant { line: 1, clause }) => assert!(clause.is_empty()),
            other => panic!("expected NotRedundant on the empty add, got {other:?}"),
        }
    }

    #[test]
    fn rejects_missing_refutation() {
        // A valid but incomplete stream on a satisfiable formula.
        let f = vec![cl(&[1, 2])];
        assert_eq!(check_proof(&f, &[]), Err(CheckError::NoRefutation));
        let p = vec![ProofLine::Add(cl(&[3, -1]))]; // RAT definition clause
        assert_eq!(check_proof(&f, &p), Err(CheckError::NoRefutation));
    }

    #[test]
    fn deletion_does_not_break_checking() {
        let (mut f, mut p) = tiny_unsat();
        f.push(cl(&[3, 4])); // irrelevant clause the proof deletes first
        p.insert(0, ProofLine::Delete(cl(&[3, 4])));
        let stats = check_proof(&f, &p).unwrap();
        assert_eq!(stats.deletes, 1);
    }

    #[test]
    fn deleting_needed_clause_makes_later_add_fail() {
        let f = vec![cl(&[1, 2]), cl(&[1, -2]), cl(&[-1, 2]), cl(&[-1, -2])];
        let p = vec![
            ProofLine::Delete(cl(&[1, 2])),
            ProofLine::Delete(cl(&[1, -2])),
            ProofLine::Add(cl(&[1])),
        ];
        assert!(matches!(
            check_proof(&f, &p),
            Err(CheckError::NotRedundant { line: 2, .. })
        ));
    }

    #[test]
    fn unmatched_and_unit_deletions_are_ignored() {
        let (f, mut p) = tiny_unsat();
        p.insert(0, ProofLine::Delete(cl(&[7, 8]))); // never existed
        p.insert(1, ProofLine::Delete(cl(&[1]))); // unit: ignored
        let stats = check_proof(&f, &p).unwrap();
        assert_eq!(stats.ignored_deletes, 2);
    }

    #[test]
    fn assumption_wrapper_checks() {
        // Formula: a -> c, b -> !c. UNSAT only under assumptions {a, b}.
        let f = vec![cl(&[-1, 3]), cl(&[-2, -3])];
        let proof = vec![
            ProofLine::Add(cl(&[1])),
            ProofLine::Add(cl(&[2])),
            ProofLine::Add(vec![]),
        ];
        // Without the assumptions the unit [1] is not derivable.
        assert!(check_proof(&f, &proof).is_err());
        let stats = check_proof_with_assumptions(&f, &cl(&[1, 2]), &proof).unwrap();
        assert!(stats.lines >= 1);
    }

    #[test]
    fn rat_only_step_is_accepted() {
        // Fresh-variable definition x3 <-> x1: the clause [3, -1] is not RUP
        // w.r.t. {[1,2]}, but it is RAT on 3 (no clause contains -3), and
        // [−3, 1] afterwards is RAT on -3 (resolvent with [3,-1] on 3 gives
        // [-1, 1], a tautology).
        let f = vec![cl(&[1, 2])];
        let p = vec![ProofLine::Add(cl(&[3, -1])), ProofLine::Add(cl(&[-3, 1]))];
        // Not a refutation, but every line must verify; expect NoRefutation
        // rather than NotRedundant.
        assert_eq!(check_proof(&f, &p), Err(CheckError::NoRefutation));
    }

    #[test]
    fn trivially_unsat_formula_needs_no_proof() {
        let f = vec![cl(&[1]), cl(&[-1])];
        assert!(check_proof(&f, &[]).is_ok());
    }

    #[test]
    fn empty_add_without_support_is_rejected() {
        let f = vec![cl(&[1, 2])];
        let p = vec![ProofLine::Add(vec![])];
        assert!(matches!(
            check_proof(&f, &p),
            Err(CheckError::NotRedundant { line: 0, .. })
        ));
    }

    /// The checker as it was before the deletion index became lazy: with
    /// the index present from the start, `install` files every clause as it
    /// lands. Kept here as the oracle for the lazy build.
    fn eager_checker(num_vars: usize) -> Checker {
        Checker {
            index: Some(HashMap::new()),
            ..Checker::new(num_vars)
        }
    }

    /// Runs one stream through the lazy and the eager checker and requires
    /// the same verdict, counters, live clauses and (once built) index.
    fn lazy_matches_eager(
        formula: &[Vec<Lit>],
        proof: &[ProofLine],
    ) -> Result<CheckStats, CheckError> {
        let n = num_vars(formula, &[], proof).expect("test streams stay in range");
        let mut lazy = Checker::new(n);
        let mut eager = eager_checker(n);
        let verdict = lazy.run(formula.to_vec(), &[], proof);
        assert_eq!(verdict, eager.run(formula.to_vec(), &[], proof));
        assert_eq!(lazy.stats, eager.stats);
        let live = |ck: &Checker| -> Vec<bool> { ck.clauses.iter().map(|c| c.active).collect() };
        assert_eq!(live(&lazy), live(&eager));
        if let Some(index) = &lazy.index {
            assert_eq!(Some(index), eager.index.as_ref());
        }
        verdict
    }

    #[test]
    fn first_delete_after_lemmas_builds_the_same_index() {
        // Units 1 and 3 get fixed (3 with (-1 3) as its reason), the four
        // clauses over 8/9 then need one more lemma — so the three deletes
        // arrive with a lemma already installed and the refutation still
        // ahead of them.
        let f = vec![
            cl(&[1, 2]),
            cl(&[1, -2]),
            cl(&[-1, 3]),
            cl(&[4, 5]),
            cl(&[-3, 8, 9]),
            cl(&[-3, 8, -9]),
            cl(&[-3, -8, 9]),
            cl(&[-3, -8, -9]),
        ];
        let p = vec![
            ProofLine::Add(cl(&[4, 5, 6])),
            ProofLine::Add(cl(&[1])),
            ProofLine::Delete(cl(&[5, 4])),    // a formula clause
            ProofLine::Delete(cl(&[6, 5, 4])), // the lemma, permuted
            ProofLine::Delete(cl(&[3, -1])),   // reason of 3: ignored
            ProofLine::Add(cl(&[8])),
            ProofLine::Add(vec![]),
        ];
        let stats = lazy_matches_eager(&f, &p).unwrap();
        assert_eq!(stats.adds, 3);
        assert_eq!(stats.deletes, 2);
        assert_eq!(stats.ignored_deletes, 1);
        assert_eq!(stats.lines, 7);
        // A stream without deletions never builds the index at all.
        let (f, p) = tiny_unsat();
        let mut ck = Checker::new(2);
        ck.run(f, &[], &p).unwrap();
        assert!(ck.index.is_none());
    }

    #[test]
    fn lazy_index_matches_eager_on_random_delete_heavy_streams() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1de1);
        let (mut accepted, mut applied) = (0, 0);
        for _ in 0..300 {
            // A random 3-CNF around the threshold, its solver-logged proof,
            // and deletions of random formula clauses, earlier lemmas
            // (permuted) and absent clauses sprinkled over it.
            let nv = 20 + rng.gen_range(0..10) as i64;
            let mut f: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..(9 * nv / 2) {
                let c: Vec<i64> = (0..3)
                    .map(|_| {
                        (1 + rng.gen_range(0..nv as u64) as i64) * if rng.gen() { 1 } else { -1 }
                    })
                    .collect();
                f.push(cl(&c));
            }
            let mut s = hh_sat::Solver::new();
            for _ in 0..nv {
                s.new_var();
            }
            for c in &f {
                s.add_clause(c);
            }
            let formula = hh_sat::dimacs::from_solver(&s).clauses;
            let sink = crate::MemoryProof::new();
            s.set_proof_sink(Box::new(sink.handle()));
            s.solve();
            let mut proof = Vec::new();
            for line in sink.take_lines() {
                if rng.gen_bool(0.3) {
                    let pool: Vec<&Vec<Lit>> = formula
                        .iter()
                        .chain(proof.iter().map(|l: &ProofLine| match l {
                            ProofLine::Add(c) | ProofLine::Delete(c) => c,
                        }))
                        .collect();
                    let mut victim = pool[rng.gen_range(0..pool.len() as u64) as usize].clone();
                    victim.reverse();
                    if rng.gen_bool(0.1) {
                        victim.push(lit(nv + 1));
                    }
                    proof.push(ProofLine::Delete(victim));
                }
                proof.push(line);
            }
            // Deleting needed clauses may break the proof; the two
            // checkers must then fail identically.
            if let Ok(stats) = lazy_matches_eager(&formula, &proof) {
                accepted += 1;
                applied += stats.deletes;
            }
        }
        assert!(
            accepted > 50 && applied > 100,
            "{accepted} streams accepted, {applied} deletions applied in them"
        );
    }

    #[test]
    fn out_of_range_proof_variable_is_an_error_not_an_allocation() {
        let (f, mut p) = tiny_unsat();
        // Two formula variables and three proof literals: indices 0..5 are
        // usable, and the largest representable variable is far outside.
        let huge = Var::from_index(Var::MAX_INDEX).positive();
        p.insert(0, ProofLine::Add(vec![lit(1), huge]));
        match check_proof(&f, &p) {
            Err(CheckError::VariableOutOfRange {
                line: 0,
                lit,
                bound: 5,
            }) => assert_eq!(lit, huge),
            other => panic!("expected VariableOutOfRange, got {other:?}"),
        }
        // Just inside the bound is fine (a vacuously RAT definition).
        p[0] = ProofLine::Add(vec![lit(5), lit(1)]);
        assert!(check_proof(&f, &p).is_ok());
        // A deletion is looked up, never indexed: it may name anything.
        p[0] = ProofLine::Delete(vec![huge, lit(1)]);
        assert_eq!(check_proof(&f, &p).unwrap().ignored_deletes, 1);
    }
}
