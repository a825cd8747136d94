//! Property-based tests: the CDCL solver is checked against a brute-force
//! enumerator on random small formulas, and core extraction is validated
//! semantically (cores are UNSAT, trimmed cores are UNSAT subsets and
//! fixpoints of trimming).

use hh_sat::{trim_core, Config, LimitedResult, Lit, SolveResult, Solver, Var};
use proptest::prelude::*;
use std::num::NonZeroU32;

/// A random clause set over `num_vars` variables, as signed var indices.
fn arb_cnf(num_vars: usize, max_clauses: usize) -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    let clause = proptest::collection::vec((0..num_vars, any::<bool>()), 1..=4);
    proptest::collection::vec(clause, 0..=max_clauses)
}

fn brute_force_sat(num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> bool {
    assert!(num_vars <= 20);
    'outer: for assignment in 0u32..(1 << num_vars) {
        for clause in clauses {
            let sat = clause
                .iter()
                .any(|&(v, pos)| ((assignment >> v) & 1 == 1) == pos);
            if !sat {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

fn build_solver(num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> Solver {
    build_solver_with(Config::default(), num_vars, clauses)
}

fn build_solver_with(config: Config, num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> Solver {
    let mut s = Solver::with_config(config);
    let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
    for clause in clauses {
        let lits: Vec<Lit> = clause.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
        s.add_clause(&lits);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// CDCL agrees with brute force on satisfiability.
    #[test]
    fn agrees_with_brute_force(clauses in arb_cnf(8, 40)) {
        let expected = brute_force_sat(8, &clauses);
        let mut s = build_solver(8, &clauses);
        let got = s.solve() == SolveResult::Sat;
        prop_assert_eq!(got, expected);
    }

    /// A SAT answer comes with a model that satisfies every clause.
    #[test]
    fn models_satisfy_all_clauses(clauses in arb_cnf(10, 50)) {
        let mut s = build_solver(10, &clauses);
        if s.solve() == SolveResult::Sat {
            let vars: Vec<Var> = (0..10).map(Var::from_index).collect();
            for clause in &clauses {
                let sat = clause.iter().any(|&(v, pos)| s.model_value(vars[v].lit(pos)));
                prop_assert!(sat, "model violates clause {:?}", clause);
            }
        }
    }

    /// Assumption solving matches adding the assumptions as unit clauses, and
    /// UNSAT cores are themselves sufficient for unsatisfiability.
    #[test]
    fn assumption_semantics(clauses in arb_cnf(7, 30), pattern in 0u8..128, polarity in 0u8..128) {
        let assumed: Vec<(usize, bool)> = (0..7)
            .filter(|i| (pattern >> i) & 1 == 1)
            .map(|i| (i, (polarity >> i) & 1 == 1))
            .collect();

        // Reference: units added as clauses.
        let mut with_units = clauses.clone();
        for &(v, pos) in &assumed {
            with_units.push(vec![(v, pos)]);
        }
        let expected = brute_force_sat(7, &with_units);

        let mut s = build_solver(7, &clauses);
        let vars: Vec<Var> = (0..7).map(Var::from_index).collect();
        let assumptions: Vec<Lit> = assumed.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
        let res = s.solve_with_assumptions(&assumptions);
        prop_assert_eq!(res == SolveResult::Sat, expected);

        if res == SolveResult::Unsat {
            let core = s.unsat_core().to_vec();
            // Core is a subset of the assumptions.
            for l in &core {
                prop_assert!(assumptions.contains(l));
            }
            // The core alone is already unsatisfiable.
            prop_assert_eq!(s.solve_with_assumptions(&core), SolveResult::Unsat);
            // And trimming yields a subset a fresh solver refutes, which
            // trimming again leaves alone.
            let trimmed = trim_core(&mut s, &core);
            for l in &trimmed {
                prop_assert!(core.contains(l));
            }
            let mut fresh = build_solver(7, &clauses);
            prop_assert_eq!(fresh.solve_with_assumptions(&trimmed), SolveResult::Unsat);
            prop_assert_eq!(trim_core(&mut s, &trimmed), trimmed);
        }
    }

    /// The solver stays consistent across incremental rounds: solving with
    /// assumptions never changes the formula.
    #[test]
    fn solving_is_stateless(clauses in arb_cnf(6, 25), rounds in 1usize..4) {
        let expected = brute_force_sat(6, &clauses);
        let mut s = build_solver(6, &clauses);
        for _ in 0..rounds {
            prop_assert_eq!(s.solve() == SolveResult::Sat, expected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Arena garbage compaction is invisible: forcing a full sweep +
    /// compaction between incremental queries never changes an answer, the
    /// two-watched-literal invariant holds after every compaction, and SAT
    /// models still satisfy every original clause.
    #[test]
    fn compaction_preserves_models_and_watches(
        clauses in arb_cnf(8, 40),
        churn in proptest::collection::vec(
            proptest::collection::vec((0..8usize, any::<bool>()), 0..=4), 1..4),
    ) {
        let expected = brute_force_sat(8, &clauses);
        let vars: Vec<Var> = (0..8).map(Var::from_index).collect();
        let mut s = build_solver(8, &clauses);
        for set in &churn {
            let assum: Vec<Lit> = set.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
            let _ = s.solve_with_assumptions(&assum);
            s.debug_force_compact();
            prop_assert_eq!(s.debug_check_watches(), Ok(()));
        }
        prop_assert_eq!(s.solve() == SolveResult::Sat, expected);
        if expected {
            for clause in &clauses {
                let sat = clause.iter().any(|&(v, pos)| s.model_value(vars[v].lit(pos)));
                prop_assert!(sat, "post-compaction model violates clause {:?}", clause);
            }
        }
    }

    /// Tiered database reduction never deletes a clause that is currently a
    /// reason on the trail, and never deletes a core-tier learnt — and the
    /// solver still answers correctly afterwards.
    #[test]
    fn reduce_keeps_core_and_reason_clauses(
        clauses in arb_cnf(8, 40),
        churn in proptest::collection::vec(
            proptest::collection::vec((0..8usize, any::<bool>()), 0..=4), 1..4),
    ) {
        let expected = brute_force_sat(8, &clauses);
        let vars: Vec<Var> = (0..8).map(Var::from_index).collect();
        let mut s = build_solver(8, &clauses);
        for set in &churn {
            let assum: Vec<Lit> = set.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
            let _ = s.solve_with_assumptions(&assum);
        }
        // Clause bodies as sorted literal sets: propagation reorders
        // literals in place, so identity is up to permutation.
        let canon = |c: &[Lit]| {
            let mut v = c.to_vec();
            v.sort();
            v
        };
        let core_before: Vec<Vec<Lit>> = s
            .debug_learnts_with_tiers()
            .iter()
            .filter(|(_, tier)| *tier == 0)
            .map(|(c, _)| canon(c))
            .collect();
        let reasons_before: Vec<Vec<Lit>> =
            s.debug_reason_clauses().iter().map(|c| canon(c)).collect();
        s.debug_force_reduce();
        prop_assert_eq!(s.debug_check_watches(), Ok(()));
        let mut live: Vec<Vec<Lit>> = s
            .debug_learnts_with_tiers()
            .iter()
            .map(|(c, _)| canon(c))
            .collect();
        s.visit_formula_clauses(|c| live.push(canon(c)));
        for c in &core_before {
            prop_assert!(live.contains(c), "reduce dropped core-tier clause {:?}", c);
        }
        for c in &reasons_before {
            prop_assert!(live.contains(c), "reduce dropped a reason clause {:?}", c);
        }
        prop_assert_eq!(s.solve() == SolveResult::Sat, expected);
    }
}

/// Every configuration the solver can be built with: the default, and the
/// one threshold at the extreme that makes its rare path the common one —
/// chrono-always (any backjump longer than one level backtracks
/// chronologically: the most out-of-order trail the solver can produce).
fn surviving_configs() -> [(&'static str, Config); 2] {
    [
        ("default", Config::default()),
        (
            "chrono_threshold=1",
            Config {
                chrono_threshold: NonZeroU32::MIN,
            },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Differential test of every surviving configuration against brute
    /// force, as an incremental session: query under assumptions,
    /// re-query, add a clause over the old variables, then solve the grown
    /// formula bare. SAT answers come with real models, UNSAT answers with a
    /// core that is a subset of the assumptions and refutes on its own, and
    /// the two-watched-literal invariant holds at the end.
    #[test]
    fn surviving_configs_agree_with_brute_force(
        clauses in arb_cnf(7, 30),
        pattern in 0u8..128,
        polarity in 0u8..128,
        extra in proptest::collection::vec((0..7usize, any::<bool>()), 1..=3),
    ) {
        let vars: Vec<Var> = (0..7).map(Var::from_index).collect();
        let assumed: Vec<(usize, bool)> = (0..7)
            .filter(|i| (pattern >> i) & 1 == 1)
            .map(|i| (i, (polarity >> i) & 1 == 1))
            .collect();
        let mut with_units = clauses.clone();
        for &(v, pos) in &assumed {
            with_units.push(vec![(v, pos)]);
        }
        let mut grown = clauses.clone();
        grown.push(extra.clone());
        let expected = brute_force_sat(7, &with_units);
        let expected_grown = brute_force_sat(7, &grown);
        let assumptions: Vec<Lit> = assumed.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();

        for (name, config) in surviving_configs() {
            let mut s = build_solver_with(config, 7, &clauses);
            let res = s.solve_with_assumptions(&assumptions);
            prop_assert_eq!(s.debug_check_values(), Ok(()), "{}", name);
            prop_assert_eq!(res == SolveResult::Sat, expected, "{}", name);
            if res == SolveResult::Sat {
                for clause in &with_units {
                    let sat = clause.iter().any(|&(v, pos)| s.model_value(vars[v].lit(pos)));
                    prop_assert!(sat, "{}: model violates {:?}", name, clause);
                }
            } else {
                let core = s.unsat_core().to_vec();
                for l in &core {
                    prop_assert!(assumptions.contains(l), "{}: {:?} not assumed", name, l);
                }
                prop_assert_eq!(s.solve_with_assumptions(&core), SolveResult::Unsat, "{}", name);
            }
            // Learnt clauses from the first query change no later answer.
            prop_assert_eq!(s.debug_check_watches(), Ok(()), "{}", name);
            prop_assert_eq!(s.solve_with_assumptions(&assumptions), res, "{}", name);
            prop_assert_eq!(s.debug_check_values(), Ok(()), "{}", name);
            // The formula grows after a solve, over variables the learnt
            // clauses already mention.
            let lits: Vec<Lit> = extra.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
            s.add_clause(&lits);
            prop_assert_eq!(s.solve() == SolveResult::Sat, expected_grown, "{}", name);
            if expected_grown {
                for clause in &grown {
                    let sat = clause.iter().any(|&(v, pos)| s.model_value(vars[v].lit(pos)));
                    prop_assert!(sat, "{}: grown model violates {:?}", name, clause);
                }
            }
            prop_assert_eq!(s.debug_check_values(), Ok(()), "{}", name);
            prop_assert_eq!(s.debug_check_watches(), Ok(()), "{}", name);
        }
    }

    /// Budgeted solving is complete and sound: driving the solver with tiny
    /// `solve_limited` slices until a verdict agrees with brute force, and
    /// the number of Unknown rounds is finite.
    #[test]
    fn budgeted_rounds_agree_with_brute_force(
        clauses in arb_cnf(8, 40),
        slice in 1u64..8,
    ) {
        let expected = brute_force_sat(8, &clauses);
        let mut s = build_solver(8, &clauses);
        let mut verdict = None;
        for _ in 0..10_000 {
            match s.solve_limited(&[], slice) {
                LimitedResult::Unknown => continue,
                LimitedResult::Sat => { verdict = Some(true); break; }
                LimitedResult::Unsat => { verdict = Some(false); break; }
            }
        }
        prop_assert_eq!(verdict, Some(expected), "budgeted rounds diverged");
        if expected {
            let vars: Vec<Var> = (0..8).map(Var::from_index).collect();
            for clause in &clauses {
                let sat = clause.iter().any(|&(v, pos)| s.model_value(vars[v].lit(pos)));
                prop_assert!(sat, "budgeted model violates clause {:?}", clause);
            }
        }
    }
}
