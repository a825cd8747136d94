//! A standalone forward RUP checker.
//!
//! Verifies that a proof — the clauses a solver added, in order — refutes a
//! CNF formula, trusting nothing about the producing solver. Each added
//! clause must be RUP (reverse unit propagation): assume the negation of
//! every literal, unit-propagate over the formula and the additions checked
//! so far, expect a conflict. Propagation uses two watched literals. There
//! is no RAT rule and no deletion: the clause set only grows, and every
//! clause in it is implied by the formula, so an accepted empty clause is a
//! refutation.
//!
//! Memory is linear in the input: an added clause may only name variables
//! below the formula's variable count plus the number of literal
//! occurrences in the proof (a proof cannot introduce more fresh variables
//! than it adds literals), so a hostile stream cannot make the per-variable
//! tables larger than the stream itself. Once the empty clause has been
//! verified the remainder of the stream is irrelevant and is skipped.

use hh_sat::Lit;

/// Counters describing a successful check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Proof lines consumed (including any skipped after refutation).
    pub lines: usize,
    /// Clause additions verified.
    pub adds: usize,
}

/// Why a proof failed to check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// An added clause is not RUP at its position.
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
    /// occurrences of the proof.
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
                write!(f, "proof line {line}: clause {clause:?} is not RUP")
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

#[derive(Debug, Default)]
struct Checker {
    clauses: Vec<Vec<Lit>>,
    /// Watch lists by literal code; entries are clause slots.
    watches: Vec<Vec<usize>>,
    /// Per-variable value: 0 unassigned, 1 positive true, -1 positive false.
    assigns: Vec<i8>,
    trail: Vec<Lit>,
    qhead: usize,
    refuted: bool,
    stats: CheckStats,
}

impl Checker {
    fn new(num_vars: usize) -> Checker {
        Checker {
            watches: vec![Vec::new(); 2 * num_vars],
            assigns: vec![0; num_vars],
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
    fn assign(&mut self, l: Lit) {
        debug_assert_eq!(self.value(l), 0);
        self.assigns[l.var().index()] = if l.is_positive() { 1 } else { -1 };
        self.trail.push(l);
    }

    fn undo_to(&mut self, mark: usize) {
        for l in self.trail.drain(mark..) {
            self.assigns[l.var().index()] = 0;
        }
        self.qhead = mark;
    }

    /// Unit propagation to fixpoint. Returns `true` on conflict.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let ci = ws[i];
                i += 1;
                let c = &mut self.clauses[ci];
                if c[0] == false_lit {
                    c.swap(0, 1);
                }
                if c[1] != false_lit {
                    // Not a watch of this clause: dropping the entry can
                    // only weaken propagation, never make it unsound.
                    continue;
                }
                let first = c[0];
                if self.value(first) == 1 {
                    ws[j] = ci;
                    j += 1;
                    continue;
                }
                for k in 2..self.clauses[ci].len() {
                    let lk = self.clauses[ci][k];
                    if self.value(lk) != -1 {
                        self.clauses[ci].swap(1, k);
                        self.watches[(!lk).code()].push(ci);
                        continue 'watchers;
                    }
                }
                // Unit or conflicting.
                ws[j] = ci;
                j += 1;
                if self.value(first) == -1 {
                    ws.copy_within(i.., j);
                    ws.truncate(j + ws.len() - i);
                    self.watches[p.code()] = ws;
                    return true;
                }
                self.assign(first);
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
        // Put two non-false literals up front so the watch invariant holds;
        // if fewer exist the clause is unit or conflicting under the fixed
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
        if nonfalse == 0 {
            self.refuted = true;
            return;
        }
        if nonfalse == 1 && self.value(lits[0]) == 0 {
            self.assign(lits[0]);
            if self.propagate() {
                self.refuted = true;
            }
        }
        if lits.len() >= 2 {
            self.watches[(!lits[0]).code()].push(self.clauses.len());
            self.watches[(!lits[1]).code()].push(self.clauses.len());
            self.clauses.push(lits);
        }
    }

    /// RUP check: assume the negation of `c` on top of the fixed assignment
    /// and propagate. Returns `true` if a conflict was reached; the trail is
    /// back at the fixed assignment either way.
    fn rup(&mut self, c: &[Lit]) -> bool {
        let mark = self.trail.len();
        let mut conflict = false;
        for &l in c {
            match self.value(l) {
                1 => {
                    conflict = true;
                    break;
                }
                -1 => {}
                _ => self.assign(!l),
            }
        }
        let conflict = conflict || self.propagate();
        self.undo_to(mark);
        conflict
    }

    /// Installs `formula ∧ assumptions`, then checks `proof` clause by
    /// clause.
    fn run(
        &mut self,
        formula: Vec<Vec<Lit>>,
        assumptions: &[Lit],
        proof: &[Vec<Lit>],
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
        for (i, c) in proof.iter().enumerate() {
            if self.refuted {
                break;
            }
            self.stats.lines = i + 1;
            if !self.rup(c) {
                return Err(CheckError::NotRedundant {
                    line: i,
                    clause: c.clone(),
                });
            }
            self.stats.adds += 1;
            self.install(c.clone());
        }
        if self.refuted {
            self.stats.lines = proof.len();
            Ok(self.stats)
        } else {
            Err(CheckError::NoRefutation)
        }
    }
}

/// The number of variables the check needs tables for, or the first added
/// clause with a literal that is out of range. Additions may name every
/// variable of the formula and the assumptions, plus at most one fresh
/// variable per literal they contain — so the tables stay linear in the
/// size of the input however large a variable index a hostile stream spells
/// out.
fn num_vars(
    formula: &[Vec<Lit>],
    assumptions: &[Lit],
    proof: &[Vec<Lit>],
) -> Result<usize, CheckError> {
    let top = |lits: &[Lit]| lits.iter().map(|l| l.var().index() + 1).max().unwrap_or(0);
    let given = formula.iter().map(|c| top(c)).max().unwrap_or(0);
    let given = given.max(top(assumptions));
    let bound = given.saturating_add(proof.iter().map(Vec::len).sum());
    let mut used = given;
    for (line, c) in proof.iter().enumerate() {
        if let Some(&lit) = c.iter().find(|l| l.var().index() >= bound) {
            return Err(CheckError::VariableOutOfRange { line, lit, bound });
        }
        used = used.max(top(c));
    }
    Ok(used)
}

/// Checks that `proof`, a sequence of added clauses, refutes `formula`.
///
/// # Errors
///
/// [`CheckError::NotRedundant`] if an addition is not RUP,
/// [`CheckError::NoRefutation`] if the stream never reaches (or implies)
/// the empty clause, [`CheckError::VariableOutOfRange`] if an added clause
/// names a variable beyond what the formula and proof can use.
pub fn check_proof(formula: &[Vec<Lit>], proof: &[Vec<Lit>]) -> Result<CheckStats, CheckError> {
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
    proof: &[Vec<Lit>],
) -> Result<CheckStats, CheckError> {
    check_refutation(formula.to_vec(), assumptions, proof)
}

/// [`check_proof_with_assumptions`] over a formula the caller gives away:
/// its clauses are normalised in place and become the checker's clause
/// store, with no second copy.
pub(crate) fn check_refutation(
    formula: Vec<Vec<Lit>>,
    assumptions: &[Lit],
    proof: &[Vec<Lit>],
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
    fn tiny_unsat() -> (Vec<Vec<Lit>>, Vec<Vec<Lit>>) {
        let formula = vec![cl(&[1, 2]), cl(&[1, -2]), cl(&[-1, 2]), cl(&[-1, -2])];
        let proof = vec![cl(&[1]), vec![]];
        (formula, proof)
    }

    #[test]
    fn accepts_valid_rup_proof() {
        let (f, p) = tiny_unsat();
        let stats = check_proof(&f, &p).unwrap();
        // Installing the verified unit [1] propagates straight to a
        // conflict, so the trailing empty-clause line is consumed as
        // already-implied rather than checked as a second addition.
        assert_eq!(stats, CheckStats { lines: 2, adds: 1 });
    }

    #[test]
    fn rejects_non_rup_addition() {
        // [1] is not RUP: propagating ¬1 only gives 2.
        let f = vec![cl(&[1, 2]), cl(&[-1, 3])];
        let p = vec![cl(&[1]), vec![]];
        match check_proof(&f, &p) {
            Err(CheckError::NotRedundant { line: 0, .. }) => {}
            other => panic!("expected NotRedundant, got {other:?}"),
        }
    }

    #[test]
    fn rejects_missing_refutation() {
        // A valid but incomplete stream on a satisfiable formula.
        let f = vec![cl(&[1, 2])];
        assert_eq!(check_proof(&f, &[]), Err(CheckError::NoRefutation));
        let p = vec![cl(&[1, 2, 3])]; // a RUP weakening
        assert_eq!(check_proof(&f, &p), Err(CheckError::NoRefutation));
    }

    #[test]
    fn assumption_wrapper_checks() {
        // Formula: a -> c, b -> !c. UNSAT only under assumptions {a, b}.
        let f = vec![cl(&[-1, 3]), cl(&[-2, -3])];
        let proof = vec![cl(&[1]), cl(&[2]), vec![]];
        // Without the assumptions the unit [1] is not derivable.
        assert!(check_proof(&f, &proof).is_err());
        let stats = check_proof_with_assumptions(&f, &cl(&[1, 2]), &proof).unwrap();
        assert!(stats.lines >= 1);
    }

    #[test]
    fn rat_only_step_is_rejected() {
        // Fresh-variable definition x3 <-> x1: the clause [3, -1] is RAT on
        // 3 w.r.t. {[1,2]} (no clause contains -3) but not RUP, and RUP is
        // the only rule this checker has.
        let f = vec![cl(&[1, 2])];
        let p = vec![cl(&[3, -1]), cl(&[-3, 1])];
        match check_proof(&f, &p) {
            Err(CheckError::NotRedundant { line: 0, clause }) => assert_eq!(clause, p[0]),
            other => panic!("expected NotRedundant on the RAT step, got {other:?}"),
        }
    }

    #[test]
    fn trivially_unsat_formula_needs_no_proof() {
        let f = vec![cl(&[1]), cl(&[-1])];
        assert!(check_proof(&f, &[]).is_ok());
    }

    #[test]
    fn empty_add_without_support_is_rejected() {
        let f = vec![cl(&[1, 2])];
        let p = vec![vec![]];
        assert!(matches!(
            check_proof(&f, &p),
            Err(CheckError::NotRedundant { line: 0, .. })
        ));
    }

    #[test]
    fn out_of_range_proof_variable_is_an_error_not_an_allocation() {
        let (f, mut p) = tiny_unsat();
        // Two formula variables and three proof literals: indices 0..5 are
        // usable, and the largest representable variable is far outside.
        let huge = Var::from_index(Var::MAX_INDEX).positive();
        p.insert(0, vec![lit(1), huge]);
        match check_proof(&f, &p) {
            Err(CheckError::VariableOutOfRange {
                line: 0,
                lit,
                bound: 5,
            }) => assert_eq!(lit, huge),
            other => panic!("expected VariableOutOfRange, got {other:?}"),
        }
        // Just inside the bound is fine (a RUP weakening of [1]).
        p[0] = vec![lit(5), lit(1)];
        assert!(check_proof(&f, &p).is_ok());
    }
}
