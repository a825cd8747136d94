//! End-to-end certification tests: certification mode must not change what
//! is learned, and the emitted bundle must satisfy — and only satisfy — the
//! independent `hh-proof` checker.

use hh_isa::{InstrClass, Mnemonic, ALL_MNEMONICS};
use hh_proof::cert::{self, CertError};
use hh_proof::CheckError;
use hh_uarch::boomlite::{boom_lite, BoomVariant};
use hh_uarch::rocketlite::rocket_lite;
use hhoudini::mine::CoiMiner;
use hhoudini::{EngineConfig, ParallelEngine};
use std::path::Path;
use veloct::examples::generate_examples_custom;
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

    // Drop one candidate from an obligation's list and patch its count: the
    // re-derived session CNF is another formula.
    let (line_no, line) = (text.lines().enumerate())
        .find(|(_, l)| l.starts_with("obligation ") && !l.contains(" candidates 0 "))
        .expect("an obligation with candidates");
    let toks: Vec<&str> = line.split_whitespace().collect();
    let count: usize = toks[3].parse().unwrap();
    let mut dropped: Vec<String> = toks.iter().map(|t| t.to_string()).collect();
    dropped[3] = (count - 1).to_string();
    dropped.remove(3 + count);
    let dropped = (text.lines().enumerate())
        .map(|(i, l)| {
            if i == line_no {
                dropped.join(" ")
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    std::fs::write(&manifest, dropped + "\n").unwrap();
    match hh_proof::cert::check_bundle(&dir) {
        Err(CertError::CnfMismatch { .. } | CertError::Structure(_)) => {}
        other => panic!("a dropped candidate must be rejected, got {other:?}"),
    }
    std::fs::write(&manifest, &text).unwrap();
    hh_proof::cert::check_bundle(&dir).expect("restored bundle checks again");

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

/// SmallBoomLite (59 obligations, enough for workers to interleave),
/// learned and emitted at 1, 2 and 4 threads: the bundle is the same bytes
/// every time, and every obligation is the learn's own logged query. A
/// `Veloct` that did not learn proves every obligation at emit time over
/// its premises: another bundle, which checks too. With two proof blobs
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
    let mut learned = None;
    let dirs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let v = veloct(threads);
            let report = v.learn(&safe);
            let inv = report
                .invariant
                .expect("the set is provable on SmallBoomLite");
            assert!(
                inv.len() > 41,
                "need obligations 3 and 41, have {}",
                inv.len()
            );
            let dir = temp_dir(&format!("threads{threads}"));
            let summary = v
                .emit_certificate(&safe, &inv, &report.solutions, &dir)
                .expect("certificate emission succeeds");
            assert_eq!(summary.obligations, inv.len());
            learned = Some((inv, report.solutions));
            dir
        })
        .collect();
    assert_same_bundle(&dirs[0], &dirs[1]);
    assert_same_bundle(&dirs[0], &dirs[2]);

    let emitted = cert::read_bundle(&dirs[2]).unwrap();
    assert!(
        (emitted.obligations.iter()).any(|ob| ob.candidates != ob.premises),
        "obligations are the learn's queries"
    );
    assert!(
        !emitted.candidates.is_empty(),
        "queries register non-invariant candidates"
    );
    let checked = cert::check_bundle(&dirs[2]).expect("genuine bundle must check");
    assert_eq!(checked.obligations, emitted.obligations.len());
    let lines: usize = (emitted.obligations.iter())
        .map(|ob| ob.proof.iter().filter(|&&b| b == 0).count())
        .sum();
    assert_eq!(checked.stats.lines, lines, "every proof line is consumed");

    // No logs: every obligation is proved at emit time, with its premises
    // as the candidates.
    let (inv, solutions) = learned.unwrap();
    let fresh_dir = temp_dir("fresh");
    Veloct::with_config(
        &design,
        VeloctConfig {
            threads: 2,
            ..VeloctConfig::default()
        },
    )
    .emit_certificate(&safe, &inv, &solutions, &fresh_dir)
    .expect("emission without logs succeeds");
    let fresh = cert::read_bundle(&fresh_dir).unwrap();
    assert!(fresh.candidates.is_empty());
    assert!(fresh
        .obligations
        .iter()
        .all(|ob| ob.candidates == ob.premises));
    cert::check_bundle(&fresh_dir).expect("an emit-time bundle checks");

    // Both proofs replaced by the bare claim "the empty clause follows":
    // neither formula refutes itself by propagation under its premises, so
    // both are rejected by the checker (not the parser), on whichever
    // worker gets to them.
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
        dirs[0].join("obligation-003.drat"),
        dirs[2].join("obligation-003.drat"),
    )
    .unwrap();
    assert!(matches!(
        cert::check_bundle(&dirs[2]),
        Err(CertError::ProofRejected { obligation: 41, .. })
    ));

    for dir in dirs.iter().chain([&fresh_dir]) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A learn on rd = x3 examples backtracks: a swept target is asked again in
/// a fresh session whose base encoding replays from the encode cache, and
/// the table keeps the retry's answer. Every committed query's log — the
/// retries' included — checks against the session CNF the checker blasts
/// fresh.
#[test]
fn a_backtracking_learns_logs_make_a_bundle_that_checks() {
    // RocketLite learns its ALU set on rd = x3 examples without a retry;
    // SmallBoomLite's needs fifteen.
    let design = boom_lite(BoomVariant::Small, 16);
    let safe: Vec<Mnemonic> = ALL_MNEMONICS
        .iter()
        .copied()
        .filter(|&m| m.class() == InstrClass::Alu && m != Mnemonic::Auipc)
        .collect();
    let v = Veloct::with_config(&design, VeloctConfig::default());
    let (miter, patterns) = v.build_miter(&safe);
    let examples = generate_examples_custom(&design, &miter, &safe, 1, 42, true, &[3]).unwrap();
    let miner = CoiMiner::new(&miter, &examples, Some(patterns.clone()), vec![]);
    let mut engine = ParallelEngine::new(miter.netlist(), miner, EngineConfig::default(), 2);
    engine.log_proofs();
    let inv = engine
        .learn(&v.property(&miter))
        .expect("the ALU set proves");
    let counters = engine.stats().counters;
    assert_eq!(counters.backtracks, 15, "rd = x3 backtracks");
    let logged = engine.take_logged_solutions();
    assert_eq!(logged.len(), engine.solutions().len());
    assert!(
        engine.take_logged_solutions().is_empty(),
        "the proofs were taken"
    );

    let mask_matches: Vec<hh_isa::MaskMatch> = (patterns.iter())
        .map(|p| hh_isa::MaskMatch {
            mask: p.mask as u32,
            matches: p.value as u32,
        })
        .collect();
    let certificate = cert::build_certificate(
        &design,
        &mask_matches,
        inv.preds(),
        &engine.solutions(),
        logged,
        2,
    )
    .expect("certificate emission succeeds");
    let dir = temp_dir("backtrack");
    cert::write_bundle(&certificate, &dir).unwrap();
    let report = cert::check_bundle(&dir).expect("the learn's logs check");
    assert_eq!(report.predicates, inv.len());
    let _ = std::fs::remove_dir_all(&dir);
}
