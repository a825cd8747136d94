//! Deletion-based UNSAT-core minimisation.
//!
//! The abduction oracle of H-Houdini (§3.2.3 of the paper) wants *weakest*
//! (smallest) abducts. cvc5 provides `minimal-unsat-cores`, which guarantees
//! locally-minimal cores; we reproduce the same guarantee with the classic
//! deletion algorithm: drop each core member in turn and re-solve — if the
//! remainder is still UNSAT the member was redundant.

use crate::solver::{SolveResult, Solver};
use crate::Lit;

/// What the caller of [`minimize_core_with`] remembers between probes.
///
/// A deletion probe asks whether `current \ {candidate}` is satisfiable.
/// A caller that keeps the models of earlier SAT answers (an incremental
/// session re-minimising after its assumption set changed) can often answer
/// that from memory; it still proves the member critical, so the result is
/// locally minimal either way. `()` remembers nothing.
pub trait ProbeMemory {
    /// Whether a model is already known that satisfies the formula together
    /// with every member of `current` except `candidate`.
    fn known_critical(&mut self, current: &[Lit], candidate: Lit) -> bool;
    /// Called after a probe answered SAT, while `solver` holds its model.
    fn on_sat_model(&mut self, solver: &Solver);
}

impl ProbeMemory for () {
    fn known_critical(&mut self, _current: &[Lit], _candidate: Lit) -> bool {
        false
    }
    fn on_sat_model(&mut self, _solver: &Solver) {}
}

/// How the members of a core were decided by [`minimize_core_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// Probes the solver answered SAT (the member is critical).
    pub sat: u64,
    /// Probes the solver answered UNSAT (the member was dropped).
    pub unsat: u64,
    /// Members [`ProbeMemory::known_critical`] vouched for, no solve made.
    pub remembered: u64,
}

/// Shrinks an UNSAT core to a *locally minimal* one: no single literal can be
/// removed while keeping the remaining assumptions unsatisfiable.
///
/// `core` must be a set of assumptions under which `solver` answers UNSAT
/// (e.g. the result of [`Solver::unsat_core`]). Returns the minimised core.
/// Each removal probe costs one incremental solve; the solver's learnt
/// clauses accumulate across probes, so later probes are typically cheap.
///
/// # Examples
///
/// ```
/// use hh_sat::{Solver, SolveResult, minimize_core};
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// let c = s.new_var().positive();
/// s.add_clause(&[!a, !b]);
/// assert_eq!(s.solve_with_assumptions(&[a, b, c]), SolveResult::Unsat);
/// let core = s.unsat_core().to_vec();
/// let min = minimize_core(&mut s, &core);
/// assert_eq!(min.len(), 2); // {a, b}
/// ```
pub fn minimize_core(solver: &mut Solver, core: &[Lit]) -> Vec<Lit> {
    minimize_core_with(solver, core, &mut ()).0
}

/// [`minimize_core`] with a [`ProbeMemory`]: members the memory vouches for
/// are kept without solving, and every SAT model is handed to it.
pub fn minimize_core_with(
    solver: &mut Solver,
    core: &[Lit],
    memory: &mut impl ProbeMemory,
) -> (Vec<Lit>, ProbeCounts) {
    let mut current: Vec<Lit> = core.to_vec();
    let mut counts = ProbeCounts::default();
    let mut i = 0;
    while i < current.len() {
        let candidate = current[i];
        if memory.known_critical(&current, candidate) {
            counts.remembered += 1;
            i += 1;
            continue;
        }
        let probe: Vec<Lit> = current
            .iter()
            .copied()
            .filter(|&l| l != candidate)
            .collect();
        match solver.solve_with_assumptions(&probe) {
            SolveResult::Unsat => {
                counts.unsat += 1;
                // The candidate was not needed. Adopt the (possibly even
                // smaller) refreshed core from this probe.
                let refreshed = solver.unsat_core().to_vec();
                // Keep the ordering of `current` for determinism.
                current.retain(|l| refreshed.contains(l));
                // Do not advance `i`: position i now holds an untested lit.
            }
            SolveResult::Sat => {
                // The candidate is essential; keep it and move on.
                counts.sat += 1;
                memory.on_sat_model(solver);
                i += 1;
            }
        }
    }
    (current, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveResult;

    #[test]
    fn drops_redundant_assumptions() {
        let mut s = Solver::new();
        let lits: Vec<Lit> = (0..6).map(|_| s.new_var().positive()).collect();
        // Only lits[0] & lits[1] conflict.
        s.add_clause(&[!lits[0], !lits[1]]);
        assert_eq!(s.solve_with_assumptions(&lits), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        let min = minimize_core(&mut s, &core);
        assert_eq!(min.len(), 2);
        assert!(min.contains(&lits[0]) && min.contains(&lits[1]));
    }

    #[test]
    fn minimal_core_is_fixed_point() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[!a, !b]);
        assert_eq!(s.solve_with_assumptions(&[a, b]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        let min1 = minimize_core(&mut s, &core);
        let min2 = minimize_core(&mut s, &min1);
        assert_eq!(min1, min2);
    }

    #[test]
    fn overlapping_reasons() {
        // a -> x, b -> x, c -> !x: {a,c} and {b,c} are both minimal cores of
        // {a,b,c}. Minimisation must return one of them (size 2).
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let c = s.new_var().positive();
        let x = s.new_var().positive();
        s.add_clause(&[!a, x]);
        s.add_clause(&[!b, x]);
        s.add_clause(&[!c, !x]);
        assert_eq!(s.solve_with_assumptions(&[a, b, c]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        let min = minimize_core(&mut s, &core);
        assert_eq!(min.len(), 2);
        assert!(min.contains(&c));
        assert!(min.contains(&a) || min.contains(&b));
        // Verify minimality: removing any member yields SAT.
        for &l in &min {
            let rest: Vec<Lit> = min.iter().copied().filter(|&m| m != l).collect();
            assert_eq!(s.solve_with_assumptions(&rest), SolveResult::Sat);
        }
    }

    #[test]
    fn empty_core_stays_empty() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        s.add_clause(&[a]);
        s.add_clause(&[!a]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(minimize_core(&mut s, &[]).is_empty());
    }
}
