//! Property-based tests for the proof pipeline: every DRAT stream the
//! solver emits on a random CNF must pass the independent checker, both for
//! plain refutations and for assumption-based UNSATs certified by the
//! wrapper trick; and damaged streams must be rejected. Hostile input —
//! proof blobs and MANIFESTs nobody emitted — must come back as an error,
//! never as a panic or an allocation the size of a spelled-out number.

use hh_proof::{check_proof, check_proof_with_assumptions, CheckError, MemoryProof, ProofLine};
use hh_sat::{dimacs, Config, LimitedResult, Lit, SolveResult, Solver, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::num::NonZeroU32;
use std::path::PathBuf;

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

    /// Binary DRAT round-trips arbitrary streams.
    #[test]
    fn drat_serialisation_roundtrips(clauses in arb_cnf(8, 40)) {
        let (_, res, proof) = solve_logged(8, &clauses, &[]);
        // SAT runs still log learnt clauses; every stream must round-trip.
        let _ = res;
        let bin = hh_proof::drat::to_binary(&proof);
        prop_assert_eq!(&hh_proof::drat::parse_binary(&bin).unwrap(), &proof);
    }
}

/// A genuine RocketLite bundle's MANIFEST (ALU safe set; the shapes and
/// hashes are what the encoder produced when this was captured, so with an
/// intact frame the checker gets as far as the proof blobs): the frame the
/// hostile-input tests below break in every way they can think of.
const MANIFEST: &str = "hh-certificate v1
design rocketlite_x16
patterns 23
pattern 7f 17
pattern 7f 37
pattern 707f 13
pattern 707f 2013
pattern 707f 3013
pattern 707f 4013
pattern 707f 6013
pattern 707f 7013
pattern fe00707f 33
pattern fe00707f 1013
pattern fe00707f 1033
pattern fe00707f 2033
pattern fe00707f 3033
pattern fe00707f 4033
pattern fe00707f 5013
pattern fe00707f 5033
pattern fe00707f 6033
pattern fe00707f 7033
pattern fe00707f 40000033
pattern fe00707f 40005013
pattern fe00707f 40005033
pattern ffffffff 0
pattern ffffffff 13
predicates 3
pred eq l$dec_valid r$dec_valid
pred eq l$wb_valid r$wb_valid
pred inset l$dec_instr r$dec_instr insafeset 23 7f:17 7f:37 707f:13 707f:2013 707f:3013 707f:4013 707f:6013 707f:7013 fe00707f:33 fe00707f:1013 fe00707f:1033 fe00707f:2033 fe00707f:3033 fe00707f:4033 fe00707f:5013 fe00707f:5033 fe00707f:6033 fe00707f:7033 fe00707f:40000033 fe00707f:40005013 fe00707f:40005033 ffffffff:0 ffffffff:13
properties 1 1
obligations 3
obligation 0 1 2 vars 1765 clauses 5691 hash 42f95801a0a0a6c3 proof obligation-000.drat
obligation 1 2 0 2 vars 1683 clauses 5441 hash 414806427b1f8444 proof obligation-001.drat
obligation 2 1 0 vars 2006 clauses 6637 hash eb721b0e7241c045 proof obligation-002.drat
";

/// The smallest blob that used to take the checker down: one added unit
/// clause whose variable is 2^31, past anything the solver can represent.
const HUGE_VARIABLE_BLOB: [u8; 7] = [0x61, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00];

fn bundle_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hh-proof-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_bundle(dir: &std::path::Path, manifest: &str, blob: &[u8]) {
    std::fs::write(dir.join("MANIFEST"), manifest).unwrap();
    for i in 0..3 {
        std::fs::write(dir.join(format!("obligation-{i:03}.drat")), blob).unwrap();
    }
}

#[test]
fn huge_variable_blob_is_rejected_at_parse_time() {
    let err = hh_proof::drat::parse_binary(&HUGE_VARIABLE_BLOB).unwrap_err();
    assert!(err.contains("out of range"), "{err}");
    // The largest varint (literal -(2^63 - 1)) is out of range too.
    let mut widest = vec![b'a'];
    widest.extend([0xff; 9]);
    widest.extend([0x01, 0x00]);
    let err = hh_proof::drat::parse_binary(&widest).unwrap_err();
    assert!(err.contains("out of range"), "{err}");
    // The largest variable that *is* representable parses — and is then the
    // checker's to bound: the tables it sizes follow the input, not the
    // number.
    let largest = vec![
        ProofLine::Add(vec![Var::from_index(Var::MAX_INDEX).positive()]),
        ProofLine::Add(vec![]),
    ];
    let lines = hh_proof::drat::parse_binary(&hh_proof::drat::to_binary(&largest)).unwrap();
    assert_eq!(lines, largest);
    let x0 = Var::from_index(0);
    let formula = vec![vec![x0.positive()], vec![x0.negative(), x0.negative()]];
    assert!(matches!(
        check_proof(&[vec![x0.positive(), x0.negative()]], &lines),
        Err(CheckError::VariableOutOfRange { line: 0, .. })
    ));
    check_proof(&formula, &[]).expect("a formula that refutes itself needs no proof");

    let dir = bundle_dir("blob");
    write_bundle(&dir, MANIFEST, &HUGE_VARIABLE_BLOB);
    match hh_proof::cert::check_bundle(&dir) {
        Err(hh_proof::cert::CertError::Parse(msg)) => {
            assert!(msg.contains("obligation-000.drat"), "{msg}")
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overflowing_premise_count_is_a_parse_error() {
    let dir = bundle_dir("premises");
    let hostile = MANIFEST.replace(
        "obligation 0 1 2 vars 1765 clauses 5691 hash 42f95801a0a0a6c3 proof obligation-000.drat",
        "obligation 0 18446744073709551615 vars 1 clauses 1 hash 0 proof",
    );
    assert_ne!(hostile, MANIFEST);
    write_bundle(&dir, &hostile, &[b'a', 0]);
    match hh_proof::cert::check_bundle(&dir) {
        Err(hh_proof::cert::CertError::Parse(msg)) => assert!(msg.contains("line 33"), "{msg}"),
        other => panic!("expected a parse error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Random byte strings through the blob parser and, when they parse, the
/// checker: any answer but a panic or an abort.
#[test]
fn random_proof_bytes_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xb10b);
    let x: Vec<Var> = (0..4).map(Var::from_index).collect();
    let formula = vec![
        vec![x[0].positive(), x[1].positive()],
        vec![x[0].negative(), x[2].positive()],
        vec![x[1].negative(), x[3].negative()],
    ];
    let (mut parsed, mut checked) = (0, 0);
    for _ in 0..20_000 {
        let len = rng.gen_range(0..24) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|_| match rng.gen_range(0..8) {
                0 => b'a',
                1 => b'd',
                2 => 0,
                3 => 0x80 | rng.gen::<u8>(),
                _ => rng.gen_range(0..12) as u8,
            })
            .collect();
        if let Ok(lines) = hh_proof::drat::parse_binary(&bytes) {
            parsed += 1;
            let canonical = hh_proof::drat::to_binary(&lines);
            assert_eq!(hh_proof::drat::parse_binary(&canonical).unwrap(), lines);
            if check_proof(&formula, &lines).is_ok() {
                checked += 1;
            }
        }
    }
    assert!(parsed > 500, "only {parsed} random blobs parsed");
    // The formula is satisfiable: no byte string is a proof of it.
    assert_eq!(checked, 0);
}

/// MANIFESTs assembled from a token soup — the genuine frame with tokens
/// swapped for numbers at every edge, keywords out of place and lines
/// dropped or doubled — never panic `check_bundle`.
#[test]
fn random_manifests_never_panic() {
    const SOUP: &[&str] = &[
        "0",
        "1",
        "2",
        "3",
        "58",
        "4096",
        "65537",
        "4294967295",
        "4294967296",
        "9223372036854775807",
        "18446744073709551605",
        "18446744073709551606",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "",
        " ",
        "vars",
        "clauses",
        "hash",
        "proof",
        "obligation",
        "pred",
        "eq",
        "inset",
        "insafeset",
        "impl",
        "pattern",
        "l$dec_valid",
        "r$dec_valid",
        "l$dec_instr",
        "l$nope",
        "7f:17",
        "ffffffff:0",
        ":",
        "deadbeef",
        "obligation-000.drat",
        "obligation-999.drat",
        "MANIFEST",
        "../x",
        ".",
        "\u{0}",
        "rocketlite_x16",
        "rocketlite_x4294967296",
        "boomlite_small_x16",
    ];
    let mut rng = StdRng::seed_from_u64(0x50a9);
    let dir = bundle_dir("soup");
    let mut reached_verify = 0;
    for case in 0..400 {
        let mut manifest = String::new();
        let rate = [0.002, 0.01, 0.03, 0.3][case % 4];
        for line in MANIFEST.lines() {
            match rng.gen_range(0..150) {
                0 => continue,
                1 => manifest.push_str(&format!("{line}\n")),
                _ => {}
            }
            let toks: Vec<&str> = line
                .split(' ')
                .map(|tok| {
                    if !rng.gen_bool(rate) {
                        tok
                    } else if tok.parse::<u64>().is_ok() && rng.gen_bool(0.7) {
                        // Keep a count or an index a small number, so the
                        // damage reaches the structure checks.
                        SOUP[rng.gen_range(0..5) as usize]
                    } else {
                        SOUP[rng.gen_range(0..SOUP.len() as u64) as usize]
                    }
                })
                .collect();
            manifest.push_str(&toks.join(" "));
            manifest.push('\n');
        }
        write_bundle(&dir, &manifest, &[b'a', 0]);
        match hh_proof::cert::check_bundle(&dir) {
            Ok(report) => panic!("a bundle with empty proofs checked: {report:?}\n{manifest}"),
            Err(hh_proof::cert::CertError::Parse(_) | hh_proof::cert::CertError::Io(_)) => {}
            Err(_) => reached_verify += 1,
        }
    }
    assert!(
        reached_verify > 40,
        "only {reached_verify} manifests got past the parser"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
