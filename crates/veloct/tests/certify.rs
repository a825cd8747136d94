//! End-to-end certification tests: certification mode must not change what
//! is learned, and the emitted bundle must satisfy — and only satisfy — the
//! independent `hh-proof` checker.

use hh_isa::{InstrClass, Mnemonic, ALL_MNEMONICS};
use hh_proof::cert::{self, CertError, Certificate, Obligation};
use hh_proof::{CheckError, MemoryProof};
use hh_sat::dimacs;
use hh_smt::{Predicate, TransitionEncoding};
use hh_uarch::boomlite::{boom_lite, BoomVariant};
use hh_uarch::rocketlite::rocket_lite;
use std::path::Path;
use veloct::{Veloct, VeloctConfig};

fn alu_safe_set() -> Vec<Mnemonic> {
    ALL_MNEMONICS
        .iter()
        .copied()
        .filter(|m| m.class() == InstrClass::Alu)
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hh-certify-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A certified run learns the exact same invariant as the default
/// configuration, at every thread count.
#[test]
fn certification_mode_is_bit_identical() {
    let design = rocket_lite(16);
    let safe = alu_safe_set();
    let mut reference = None;
    for threads in [1usize, 2, 4] {
        for certify in [false, true] {
            let v = Veloct::with_config(
                &design,
                VeloctConfig {
                    threads,
                    pairs_per_instr: 1,
                    certify,
                    ..VeloctConfig::default()
                },
            );
            let report = v.learn(&safe);
            let inv = report
                .invariant
                .unwrap_or_else(|| panic!("learning failed (threads={threads} certify={certify})"));
            let preds = inv.preds().to_vec();
            match &reference {
                None => reference = Some(preds),
                Some(r) => assert_eq!(
                    r, &preds,
                    "invariant differs at threads={threads} certify={certify}"
                ),
            }
            if certify {
                assert!(
                    !report.solutions.is_empty(),
                    "certified runs must record the solution table"
                );
            }
        }
    }
}

/// `certify` selects nothing inside the engine: at one worker and at two,
/// a certified and a plain learn agree on the invariant and on every
/// counter — queries, solver calls, conflicts, propagations, encode-cache
/// hits (the cache is keyed by target and a target is never in flight
/// twice, so no race decides a hit).
#[test]
fn certified_and_plain_learns_are_the_same_run() {
    let design = rocket_lite(16);
    let safe = alu_safe_set();
    for threads in [1, 2] {
        let run = |certify: bool| {
            let v = Veloct::with_config(
                &design,
                VeloctConfig {
                    threads,
                    pairs_per_instr: 1,
                    certify,
                    ..VeloctConfig::default()
                },
            );
            let report = v.learn(&safe);
            let inv = report.invariant.expect("ALU set is provable on RocketLite");
            (inv.preds().to_vec(), report.stats.counters())
        };
        let (plain_inv, plain) = run(false);
        let (certified_inv, certified) = run(true);
        assert_eq!(plain_inv, certified_inv, "threads={threads}");
        assert_eq!(plain, certified, "threads={threads}");
        let count = |name: &str| plain.iter().find(|(n, _)| *n == name).expect(name).1;
        for name in [
            "engine.query",
            "sat.solves",
            "sat.conflicts",
            "sat.propagations",
        ] {
            assert!(count(name) > 0, "{name} must count real work");
        }
    }
}

/// A certified RocketLite run emits a bundle the independent checker
/// accepts; corrupting the proof blob or tampering with the predicate list
/// makes it reject.
#[test]
fn emitted_bundle_checks_and_tampering_is_rejected() {
    let design = rocket_lite(16);
    let safe = alu_safe_set();
    let v = Veloct::with_config(
        &design,
        VeloctConfig {
            threads: 2,
            pairs_per_instr: 1,
            certify: true,
            ..VeloctConfig::default()
        },
    );
    let report = v.learn(&safe);
    let inv = report.invariant.expect("ALU set is provable on RocketLite");

    let dir = temp_dir("bundle");
    let summary = v
        .emit_certificate(&safe, &inv, &report.solutions, &dir)
        .expect("certificate emission succeeds");
    assert_eq!(summary.obligations, inv.len());
    assert!(summary.proof_bytes > 0);

    let report = hh_proof::cert::check_bundle(&dir).expect("genuine bundle must check");
    assert_eq!(report.obligations, inv.len());
    assert_eq!(report.predicates, inv.len());

    // Corrupt one byte of a proof blob: rejected.
    let blob = dir.join("obligation-000.drat");
    let mut bytes = std::fs::read(&blob).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    std::fs::write(&blob, &bytes).unwrap();
    assert!(
        hh_proof::cert::check_bundle(&dir).is_err(),
        "corrupted proof blob must be rejected"
    );
    bytes[mid] ^= 0x55;
    std::fs::write(&blob, &bytes).unwrap();
    hh_proof::cert::check_bundle(&dir).expect("restored bundle checks again");

    // Truncate it: rejected, at parse time or by the checker.
    std::fs::write(&blob, &bytes[..mid]).unwrap();
    assert!(
        hh_proof::cert::check_bundle(&dir).is_err(),
        "truncated proof blob must be rejected"
    );

    // Swap it for one added unit clause over a huge variable. The CNF shape
    // and hash in the MANIFEST still match, so these blobs are the
    // checker's to refuse: variable 2^31 is outside the literal encoding
    // (a parse error), 2^31 - 1 is inside it but nothing this formula and a
    // one-literal proof can name — an error, not tables for 2^31 variables.
    std::fs::write(&blob, [0x61, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00]).unwrap();
    assert!(matches!(
        hh_proof::cert::check_bundle(&dir),
        Err(CertError::Parse(_))
    ));
    std::fs::write(&blob, [0x61, 0xfe, 0xff, 0xff, 0xff, 0x0f, 0x00]).unwrap();
    assert!(matches!(
        hh_proof::cert::check_bundle(&dir),
        Err(CertError::ProofRejected {
            obligation: 0,
            error: CheckError::VariableOutOfRange { line: 0, .. }
        })
    ));
    std::fs::write(&blob, &bytes).unwrap();
    hh_proof::cert::check_bundle(&dir).expect("restored bundle checks again");

    // Patch one obligation's hash: the re-derived CNF no longer matches.
    let manifest = dir.join("MANIFEST");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let (at, _) = text
        .match_indices(" hash ")
        .nth(1)
        .expect("three obligations");
    let mut patched = text.clone().into_bytes();
    patched[at + 6] = if patched[at + 6] == b'0' { b'1' } else { b'0' };
    std::fs::write(&manifest, &patched).unwrap();
    assert!(matches!(
        hh_proof::cert::check_bundle(&dir),
        Err(CertError::CnfMismatch { obligation: 1, .. })
    ));
    std::fs::write(&manifest, &text).unwrap();

    // Tamper with the predicate list: drop one predicate line and patch the
    // count. The coverage / property checks must catch it.
    let n = inv.len();
    let tampered: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with("pred eq "))
        .collect();
    let tampered = tampered
        .join("\n")
        .replace(&format!("predicates {n}"), "predicates 1");
    std::fs::write(&manifest, tampered + "\n").unwrap();
    assert!(
        hh_proof::cert::check_bundle(&dir).is_err(),
        "tampered predicate list must be rejected"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file of `a` is in `b` with the same bytes, and nothing else is.
fn assert_same_bundle(a: &Path, b: &Path) {
    let names = |dir: &Path| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    assert_eq!(names(a), names(b), "{} vs {}", a.display(), b.display());
    for name in names(a) {
        assert!(
            std::fs::read(a.join(&name)).unwrap() == std::fs::read(b.join(&name)).unwrap(),
            "{name:?} differs between {} and {}",
            a.display(),
            b.display()
        );
    }
}

/// The emitter as it was before obligations shared a context and a queue:
/// one `TransitionEncoding::new` (its own simplification map) and one
/// solve per obligation, in order, on this thread, the CNF hashed through
/// its DIMACS text. Predicates and premise lists are taken from `emitted`;
/// everything derived from them is recomputed.
fn reference_bundle(design: &hh_uarch::Design, emitted: &Certificate) -> Certificate {
    let miter = hh_uarch::decode::constrained_miter(design, &emitted.patterns);
    let netlist = miter.netlist();
    let preds: Vec<Predicate> = emitted
        .predicates
        .iter()
        .map(|wire| Predicate::from_wire(wire, netlist).unwrap())
        .collect();
    let obligations = emitted
        .obligations
        .iter()
        .map(|ob| {
            let target = &preds[ob.target];
            let mut enc = TransitionEncoding::new(netlist);
            let now = target.encode_current(&mut enc);
            enc.assert_lit(now);
            for &j in &ob.premises {
                let l = preds[j].encode_current(&mut enc);
                enc.assert_lit(l);
            }
            let next = target.encode_next(&mut enc);
            enc.assert_lit(!next);
            let solver = enc.cnf_mut().solver_mut();
            let cnf = dimacs::from_solver(solver);
            let proof = MemoryProof::new();
            solver.set_proof_sink(Box::new(proof.handle()));
            assert_eq!(solver.solve(), hh_sat::SolveResult::Unsat);
            Obligation {
                target: ob.target,
                premises: ob.premises.clone(),
                num_vars: cnf.num_vars,
                num_clauses: cnf.clauses.len(),
                cnf_hash: cert::fnv1a(dimacs::to_dimacs(&cnf).as_bytes()),
                proof: proof.take_lines(),
            }
        })
        .collect();
    Certificate {
        obligations,
        ..emitted.clone()
    }
}

/// One SmallBoomLite learn (58 obligations, enough for workers to
/// interleave), emitted at 1, 2 and 4 threads: the bundle is the same bytes
/// every time, and the same bytes as the one-shot sequential reference —
/// shapes, streamed hashes and proofs included. With two proof blobs
/// corrupted the checker names the lower one, every time (the interleaving
/// that could get this wrong is forced in `hh-proof`'s own queue test).
#[test]
fn bundle_bytes_and_reported_failure_do_not_depend_on_threads() {
    let design = boom_lite(BoomVariant::Small, 16);
    let safe: Vec<Mnemonic> = ALL_MNEMONICS
        .iter()
        .copied()
        .filter(|m| {
            (m.class() == InstrClass::Alu && *m != Mnemonic::Auipc) || m.class() == InstrClass::Mul
        })
        .collect();
    let veloct = |threads| {
        Veloct::with_config(
            &design,
            VeloctConfig {
                threads,
                pairs_per_instr: 1,
                certify: true,
                ..VeloctConfig::default()
            },
        )
    };
    let report = veloct(2).learn(&safe);
    let inv = report
        .invariant
        .expect("the set is provable on SmallBoomLite");
    assert!(
        inv.len() > 41,
        "need obligations 3 and 41, have {}",
        inv.len()
    );

    let dirs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let dir = temp_dir(&format!("threads{threads}"));
            let summary = veloct(threads)
                .emit_certificate(&safe, &inv, &report.solutions, &dir)
                .expect("certificate emission succeeds");
            assert_eq!(summary.obligations, inv.len());
            dir
        })
        .collect();
    assert_same_bundle(&dirs[0], &dirs[1]);
    assert_same_bundle(&dirs[0], &dirs[2]);

    let emitted = cert::read_bundle(&dirs[2]).unwrap();
    let reference = reference_bundle(&design, &emitted);
    for (ob, reference) in emitted.obligations.iter().zip(&reference.obligations) {
        assert_eq!(
            ob.cnf_hash, reference.cnf_hash,
            "obligation {}: streamed fingerprint vs hash of the DIMACS text",
            ob.target
        );
    }
    let reference_dir = temp_dir("reference");
    cert::write_bundle(&reference, &reference_dir).unwrap();
    assert_same_bundle(&dirs[2], &reference_dir);

    let checked = cert::check_bundle(&dirs[2]).expect("genuine bundle must check");
    assert_eq!(checked.obligations, inv.len());
    let lemmas: usize = emitted.obligations.iter().map(|ob| ob.proof.len()).sum();
    assert_eq!(checked.stats.lines, lemmas, "every proof line is consumed");

    // Both proofs replaced by the bare claim "the empty clause follows":
    // neither formula refutes itself by propagation, so both are rejected
    // by the checker (not the parser), on whichever worker gets to them.
    for k in [3, 41] {
        std::fs::write(dirs[2].join(format!("obligation-{k:03}.drat")), [b'a', 0]).unwrap();
    }
    for round in 0..20 {
        match cert::check_bundle(&dirs[2]) {
            Err(CertError::ProofRejected {
                obligation: 3,
                error: CheckError::NotRedundant { line: 0, .. },
            }) => {}
            other => panic!("round {round}: expected obligation 3 rejected, got {other:?}"),
        }
    }

    // ... and 41 really was a second failure waiting behind it.
    std::fs::copy(
        reference_dir.join("obligation-003.drat"),
        dirs[2].join("obligation-003.drat"),
    )
    .unwrap();
    assert!(matches!(
        cert::check_bundle(&dirs[2]),
        Err(CertError::ProofRejected { obligation: 41, .. })
    ));

    for dir in dirs.iter().chain([&reference_dir]) {
        let _ = std::fs::remove_dir_all(dir);
    }
}
