//! Property-based tests for the proof pipeline: every DRAT stream the
//! solver emits on a random CNF must pass the independent checker, both for
//! plain refutations and for assumption-based UNSATs certified by the
//! wrapper trick; and damaged streams must be rejected.

use hh_proof::{check_proof, check_proof_with_assumptions, CheckError, MemoryProof, ProofLine};
use hh_sat::{dimacs, Config, LimitedResult, Lit, SolveResult, Solver, Var};
use proptest::prelude::*;
use std::num::{NonZeroU32, NonZeroU64};

/// A random clause set over `num_vars` variables, as signed var indices.
fn arb_cnf(num_vars: usize, max_clauses: usize) -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    let clause = proptest::collection::vec((0..num_vars, any::<bool>()), 1..=4);
    proptest::collection::vec(clause, 0..=max_clauses)
}

fn build_solver(num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> Solver {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
    for clause in clauses {
        let lits: Vec<Lit> = clause.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
        s.add_clause(&lits);
    }
    s
}

/// Runs a solver on the clauses with proof logging attached and returns
/// `(formula snapshot, result, proof)`. The snapshot is taken before
/// solving — it is the formula the proof stream refutes.
fn solve_logged(
    num_vars: usize,
    clauses: &[Vec<(usize, bool)>],
    assumptions: &[Lit],
) -> (Vec<Vec<Lit>>, SolveResult, Vec<ProofLine>) {
    let mut s = build_solver(num_vars, clauses);
    let formula = dimacs::from_solver(&s).clauses;
    let sink = MemoryProof::new();
    let handle = sink.handle();
    s.set_proof_sink(Box::new(sink));
    let res = if assumptions.is_empty() {
        s.solve()
    } else {
        s.solve_with_assumptions(assumptions)
    };
    (formula, res, handle.take_lines())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Every UNSAT run's proof stream passes the independent checker
    /// against the pre-solve formula snapshot.
    #[test]
    fn solver_proofs_always_check(clauses in arb_cnf(8, 40)) {
        let (formula, res, proof) = solve_logged(8, &clauses, &[]);
        if res == SolveResult::Unsat {
            let stats = check_proof(&formula, &proof)
                .unwrap_or_else(|e| panic!("valid proof rejected: {e}\nformula: {clauses:?}"));
            prop_assert!(stats.lines <= proof.len() + 1);
        }
    }

    /// Assumption-based UNSATs check under the wrapper trick: the final
    /// core is logged as units, which are RUP once the checker installs the
    /// assumptions as input units.
    #[test]
    fn assumption_proofs_always_check(
        clauses in arb_cnf(7, 30),
        pattern in 0u8..128,
        polarity in 0u8..128,
    ) {
        let vars: Vec<Var> = (0..7).map(Var::from_index).collect();
        let assumptions: Vec<Lit> = (0..7)
            .filter(|i| (pattern >> i) & 1 == 1)
            .map(|i| vars[i].lit((polarity >> i) & 1 == 1))
            .collect();
        let (formula, res, proof) = solve_logged(7, &clauses, &assumptions);
        if res == SolveResult::Unsat {
            check_proof_with_assumptions(&formula, &assumptions, &proof)
                .unwrap_or_else(|e| panic!("valid assumption proof rejected: {e}"));
        }
    }

    /// Dropping proof lines is detected: the minimal accepted prefix of a
    /// valid proof becomes invalid when its last line is removed.
    #[test]
    fn dropped_proof_line_is_rejected(clauses in arb_cnf(8, 40)) {
        let (formula, res, proof) = solve_logged(8, &clauses, &[]);
        if res != SolveResult::Unsat {
            return Ok(());
        }
        prop_assert!(check_proof(&formula, &proof).is_ok());
        let k = (0..=proof.len())
            .find(|&k| check_proof(&formula, &proof[..k]).is_ok())
            .expect("the full proof is accepted");
        if k > 0 {
            prop_assert!(
                check_proof(&formula, &proof[..k - 1]).is_err(),
                "prefix of length {} accepted but {} is the minimal accepted prefix",
                k - 1,
                k
            );
        }
    }

    /// Stripping every addition (keeping deletions) kills any proof whose
    /// formula does not already refute itself by propagation — deletions
    /// only ever weaken the clause database.
    #[test]
    fn adds_stripped_proof_is_rejected(clauses in arb_cnf(8, 40)) {
        let (formula, res, proof) = solve_logged(8, &clauses, &[]);
        if res != SolveResult::Unsat || check_proof(&formula, &[]).is_ok() {
            return Ok(());
        }
        let deletes_only: Vec<ProofLine> = proof
            .iter()
            .filter(|l| matches!(l, ProofLine::Delete(_)))
            .cloned()
            .collect();
        prop_assert_eq!(
            check_proof(&formula, &deletes_only),
            Err(CheckError::NoRefutation)
        );
    }

    /// Database reduction and arena compaction only ever *weaken* the DRAT
    /// stream: a proof logged across forced reduce/compact cycles between
    /// incremental queries still passes the independent checker. Runs where
    /// an intermediate query already went UNSAT are skipped — the wrapper
    /// trick certifies one assumption set per stream.
    #[test]
    fn proofs_check_across_reduce_and_compaction(
        clauses in arb_cnf(7, 30),
        churn in proptest::collection::vec(
            proptest::collection::vec((0..7usize, any::<bool>()), 0..=3), 1..4),
        pattern in 0u8..128,
        polarity in 0u8..128,
    ) {
        let vars: Vec<Var> = (0..7).map(Var::from_index).collect();
        let to_lits = |set: &[(usize, bool)]| -> Vec<Lit> {
            set.iter().map(|&(v, pos)| vars[v].lit(pos)).collect()
        };
        let mut s = build_solver(7, &clauses);
        let formula = dimacs::from_solver(&s).clauses;
        let sink = MemoryProof::new();
        let handle = sink.handle();
        s.set_proof_sink(Box::new(sink));
        for set in &churn {
            if s.solve_with_assumptions(&to_lits(set)) == SolveResult::Unsat {
                // Stream already carries this set's core units; a later
                // check under different assumptions would be vacuous.
                return Ok(());
            }
            s.debug_force_reduce();
            s.debug_force_compact();
        }
        let assumptions: Vec<Lit> = (0..7)
            .filter(|i| (pattern >> i) & 1 == 1)
            .map(|i| vars[i].lit((polarity >> i) & 1 == 1))
            .collect();
        if s.solve_with_assumptions(&assumptions) == SolveResult::Unsat {
            let proof = handle.take_lines();
            check_proof_with_assumptions(&formula, &assumptions, &proof)
                .unwrap_or_else(|e| {
                    panic!("proof broken by reduce/compaction: {e}\nformula: {clauses:?}")
                });
        }
    }

    /// Clause vivification rewrites the database between queries — every
    /// strengthened clause is logged add-then-delete — and the stream must
    /// stay checkable across vivify/reduce/compact cycles. All variables
    /// are frozen so elimination cannot hide them from later assumptions.
    #[test]
    fn proofs_check_across_vivification(
        clauses in arb_cnf(7, 30),
        churn in proptest::collection::vec(
            proptest::collection::vec((0..7usize, any::<bool>()), 0..=3), 1..4),
        pattern in 0u8..128,
        polarity in 0u8..128,
    ) {
        let vars: Vec<Var> = (0..7).map(Var::from_index).collect();
        let to_lits = |set: &[(usize, bool)]| -> Vec<Lit> {
            set.iter().map(|&(v, pos)| vars[v].lit(pos)).collect()
        };
        let mut s = Solver::with_config(Config {
            vivify_budget: NonZeroU64::MAX,
            ..Config::default()
        });
        for _ in 0..7 {
            s.new_var();
        }
        for clause in &clauses {
            s.add_clause(&to_lits(clause));
        }
        for v in &vars {
            s.freeze(*v);
        }
        let formula = dimacs::from_solver(&s).clauses;
        let sink = MemoryProof::new();
        let handle = sink.handle();
        s.set_proof_sink(Box::new(sink));
        for set in &churn {
            if s.solve_with_assumptions(&to_lits(set)) == SolveResult::Unsat {
                return Ok(());
            }
            if !s.simplify() {
                break;
            }
            s.debug_force_reduce();
            s.debug_force_compact();
        }
        let assumptions: Vec<Lit> = (0..7)
            .filter(|i| (pattern >> i) & 1 == 1)
            .map(|i| vars[i].lit((polarity >> i) & 1 == 1))
            .collect();
        if s.solve_with_assumptions(&assumptions) == SolveResult::Unsat {
            let proof = handle.take_lines();
            check_proof_with_assumptions(&formula, &assumptions, &proof)
                .unwrap_or_else(|e| {
                    panic!("proof broken by vivification: {e}\nformula: {clauses:?}")
                });
        }
    }

    /// Chronological backtracking at its most aggressive threshold still
    /// emits checkable DRAT streams, with and without assumptions. The
    /// out-of-order trail must never leak underivable clauses into the
    /// proof.
    #[test]
    fn chrono_proofs_always_check(
        clauses in arb_cnf(7, 30),
        pattern in 0u8..128,
        polarity in 0u8..128,
    ) {
        let vars: Vec<Var> = (0..7).map(Var::from_index).collect();
        let assumptions: Vec<Lit> = (0..7)
            .filter(|i| (pattern >> i) & 1 == 1)
            .map(|i| vars[i].lit((polarity >> i) & 1 == 1))
            .collect();
        let mut s = Solver::with_config(Config {
            chrono_threshold: NonZeroU32::MIN,
            ..Config::default()
        });
        for _ in 0..7 {
            s.new_var();
        }
        for clause in &clauses {
            let lits: Vec<Lit> = clause.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
            s.add_clause(&lits);
        }
        let formula = dimacs::from_solver(&s).clauses;
        let sink = MemoryProof::new();
        let handle = sink.handle();
        s.set_proof_sink(Box::new(sink));
        if s.solve_with_assumptions(&assumptions) == SolveResult::Unsat {
            let proof = handle.take_lines();
            check_proof_with_assumptions(&formula, &assumptions, &proof)
                .unwrap_or_else(|e| panic!("chrono proof rejected: {e}\nformula: {clauses:?}"));
        }
    }

    /// A solve driven to its verdict through many tiny `solve_limited`
    /// budget rounds produces one DRAT stream across all the suspensions,
    /// and it still checks.
    #[test]
    fn budgeted_solve_proofs_always_check(clauses in arb_cnf(7, 30), slice in 1u64..8) {
        let mut s = build_solver(7, &clauses);
        let formula = dimacs::from_solver(&s).clauses;
        let sink = MemoryProof::new();
        let handle = sink.handle();
        s.set_proof_sink(Box::new(sink));
        let mut verdict = None;
        for _ in 0..10_000 {
            match s.solve_limited(&[], slice) {
                LimitedResult::Unknown => continue,
                v => { verdict = Some(v); break; }
            }
        }
        if verdict == Some(LimitedResult::Unsat) {
            let proof = handle.take_lines();
            check_proof(&formula, &proof)
                .unwrap_or_else(|e| panic!("budgeted proof rejected: {e}\nformula: {clauses:?}"));
        }
    }

    /// Text and binary DRAT serialisations round-trip arbitrary streams.
    #[test]
    fn drat_serialisation_roundtrips(clauses in arb_cnf(8, 40)) {
        let (_, res, proof) = solve_logged(8, &clauses, &[]);
        // SAT runs still log learnt clauses; every stream must round-trip.
        let _ = res;
        let text = hh_proof::drat::to_text(&proof);
        prop_assert_eq!(&hh_proof::drat::parse_text(&text).unwrap(), &proof);
        let bin = hh_proof::drat::to_binary(&proof);
        prop_assert_eq!(&hh_proof::drat::parse_binary(&bin).unwrap(), &proof);
    }
}
