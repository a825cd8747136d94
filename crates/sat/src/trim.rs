//! Fixpoint trimming of UNSAT cores.
//!
//! The abduction oracle of H-Houdini (§3.2.3 of the paper) wants *weak*
//! (small) abducts. cvc5's `minimal-unsat-cores` proves local minimality by
//! deletion: one solve per core member, nearly all of them SAT answers that
//! remove nothing. Trimming keeps only the cheap half of that: re-solve under
//! the core's own assumptions and adopt the solver's refreshed core, until it
//! stops shrinking. Every step is an UNSAT solve; no SAT probe is made, so
//! the result is an UNSAT core but not necessarily a locally minimal one.

use crate::solver::{SolveResult, Solver};
use crate::Lit;

/// Shrinks an UNSAT core by re-solving under it until the refreshed core no
/// longer shrinks. Returns the trimmed core, a subset of `core` in `core`'s
/// order; the solves it took show in [`Solver::stats`].
///
/// `core` must be a set of assumptions under which `solver` answers UNSAT
/// (e.g. the result of [`Solver::unsat_core`]). The order of `core` is the
/// order the solver assumes its members in, which steers which of them the
/// refreshed cores keep. An empty core costs no solve.
///
/// # Examples
///
/// ```
/// use hh_sat::{Solver, SolveResult, trim_core};
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// let c = s.new_var().positive();
/// s.add_clause(&[!a, !b]);
/// assert_eq!(s.solve_with_assumptions(&[a, b, c]), SolveResult::Unsat);
/// let core = s.unsat_core().to_vec();
/// let solves = s.stats().solves;
/// assert_eq!(trim_core(&mut s, &core), [a, b]);
/// assert_eq!(s.stats().solves - solves, 1);
/// ```
pub fn trim_core(solver: &mut Solver, core: &[Lit]) -> Vec<Lit> {
    let mut current = core.to_vec();
    while !current.is_empty() {
        let verdict = solver.solve_with_assumptions(&current);
        assert_eq!(verdict, SolveResult::Unsat, "trim_core needs an UNSAT core");
        let before = current.len();
        let refreshed = solver.unsat_core();
        current.retain(|l| refreshed.contains(l));
        if current.len() == before {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A solver whose clauses over `vars` fresh variables are `clauses`
    /// (given as variable index and polarity).
    fn build(vars: usize, clauses: &[&[(usize, bool)]]) -> (Solver, Vec<Lit>) {
        let mut s = Solver::new();
        let lits: Vec<Lit> = (0..vars).map(|_| s.new_var().positive()).collect();
        for c in clauses {
            let c: Vec<Lit> = c
                .iter()
                .map(|&(v, pos)| if pos { lits[v] } else { !lits[v] })
                .collect();
            s.add_clause(&c);
        }
        (s, lits)
    }

    #[test]
    fn drops_redundant_assumptions() {
        // Only lits[0] & lits[1] conflict.
        let (mut s, lits) = build(6, &[&[(0, false), (1, false)]]);
        assert_eq!(s.solve_with_assumptions(&lits), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert_eq!(trim_core(&mut s, &core), [lits[0], lits[1]]);
    }

    #[test]
    fn result_is_a_refuted_subset_and_a_fixpoint() {
        // a -> x, b -> x, c -> !x, d -> !x: any of {a,b} with any of {c,d}
        // is a core.
        let clauses: &[&[(usize, bool)]] = &[
            &[(0, false), (4, true)],
            &[(1, false), (4, true)],
            &[(2, false), (4, false)],
            &[(3, false), (4, false)],
        ];
        let (mut s, lits) = build(5, clauses);
        let assumed = &lits[..4];
        assert_eq!(s.solve_with_assumptions(assumed), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        let solves = s.stats().solves;
        let trimmed = trim_core(&mut s, &core);
        assert!(s.stats().solves > solves);
        assert!(trimmed.iter().all(|l| core.contains(l)));
        let (mut fresh, _) = build(5, clauses);
        assert_eq!(fresh.solve_with_assumptions(&trimmed), SolveResult::Unsat);
        // A fixpoint: trimming again keeps every member, in one solve.
        let solves = s.stats().solves;
        assert_eq!(trim_core(&mut s, &trimmed), trimmed);
        assert_eq!(s.stats().solves - solves, 1);
    }

    #[test]
    fn empty_core_costs_no_solve() {
        let (mut s, lits) = build(1, &[&[(0, true)], &[(0, false)]]);
        assert_eq!(s.solve_with_assumptions(&lits), SolveResult::Unsat);
        let solves = s.stats().solves;
        assert!(trim_core(&mut s, &[]).is_empty());
        assert_eq!(s.stats().solves, solves);
    }
}
