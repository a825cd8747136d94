//! End-to-end certification tests: certification mode must not change what
//! is learned, and the emitted bundle must satisfy — and only satisfy — the
//! independent `hh-proof` checker.

use hh_isa::{InstrClass, Mnemonic, ALL_MNEMONICS};
use hh_uarch::rocketlite::rocket_lite;
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

/// `certify` selects nothing inside the engine: with the schedule pinned to
/// one worker (at more, which of two signature-equal sessions records a
/// cone first is a race, so cache hits vary), a certified and a plain learn
/// agree on the invariant and on every counter — queries, solver calls,
/// conflicts, propagations, encode-cache hits.
#[test]
fn certified_and_plain_learns_are_the_same_run() {
    let design = rocket_lite(16);
    let safe = alu_safe_set();
    let run = |certify: bool| {
        let v = Veloct::with_config(
            &design,
            VeloctConfig {
                threads: 1,
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
    assert_eq!(plain_inv, certified_inv);
    assert_eq!(plain, certified);
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

    // Tamper with the predicate list: drop one predicate line and patch the
    // count. The coverage / property checks must catch it.
    let manifest = dir.join("MANIFEST");
    let text = std::fs::read_to_string(&manifest).unwrap();
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
