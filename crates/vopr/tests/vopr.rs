//! Integration tests for the simulator itself: the reproducibility
//! contract (`--seed` is the whole bug report), schedule diversity across
//! seeds, a clean CI batch, and the regression canary — the simulator must
//! catch a deliberately reintroduced commit-order shuffle.

use hh_vopr::harness::{self, probe, VoprOptions};

/// ISSUE acceptance: same seed ⇒ identical trace event-log hash and
/// identical invariant, at reorder windows 1, 2 and 4. Window 1 is the
/// serial schedule; wider windows genuinely reorder, yet every artifact
/// must still be a pure function of `(window, seed)`.
#[test]
fn same_seed_is_bit_identical_at_windows_1_2_4() {
    for scenario in 0..3 {
        let mut invariants = Vec::new();
        for window in [1usize, 2, 4] {
            let a = probe(scenario, window, 42);
            let b = probe(scenario, window, 42);
            assert_eq!(
                a.trace_hash, b.trace_hash,
                "scenario {scenario} window {window}: event-log hash diverged"
            );
            assert_eq!(a.events, b.events, "scheduler event log diverged");
            assert_eq!(a.invariant, b.invariant, "learned invariant diverged");
            assert_eq!(a.solutions, b.solutions, "solution table diverged");
            invariants.push(a.invariant);
        }
        // The *learned result* must not depend on the window width either —
        // reordering may change timing, never answers.
        assert_eq!(invariants[0], invariants[1], "scenario {scenario}");
        assert_eq!(invariants[1], invariants[2], "scenario {scenario}");
    }
}

/// Guard against a silently-unused PRNG: different seeds must actually
/// produce different completion schedules on the wide scenario (which has
/// enough independent cones for the window to have real freedom).
#[test]
fn different_seeds_produce_different_schedules() {
    let base = probe(0, 4, 0);
    let diverged = (1u64..16).any(|seed| probe(0, 4, seed).events != base.events);
    assert!(
        diverged,
        "15 distinct seeds replayed seed 0's schedule exactly — the \
         driver PRNG is not reaching the scheduler"
    );
}

/// A batch of default-option seeds must run violation-free — the same
/// property the CI smoke job asserts over the full 32-seed set via the
/// binary (this in-process version keeps the serve scenario off for speed).
#[test]
fn seed_batch_is_violation_free() {
    let opts = VoprOptions {
        serve: false,
        ..VoprOptions::default()
    };
    for seed in 0..6 {
        let report = harness::run_seed(seed, &opts);
        assert!(
            report.violations.is_empty(),
            "seed {seed} violated: {:?}",
            report.violations
        );
        assert!(report.checks > 0, "seed {seed} ran no checkers");
        // The per-seed digest is itself reproducible.
        assert_eq!(report.digest(), harness::run_seed(seed, &opts).digest());
    }
}

/// Regression canary: reintroducing the commit-order shuffle (the hidden
/// `enable_commit_shuffle` flag) must be caught by the commit-order
/// checker within a small seed budget. If this test fails, the simulator
/// has gone blind.
#[test]
fn canary_commit_shuffle_is_detected() {
    let opts = VoprOptions {
        canary: true,
        serve: false,
    };
    let caught = (0..8u64).any(|seed| {
        harness::run_seed(seed, &opts)
            .violations
            .iter()
            .any(|v| v.contains("commit-order"))
    });
    assert!(
        caught,
        "commit-order shuffle reintroduced but no checker fired in 8 seeds"
    );
}

/// `minimize` on a canary failure must shrink to the empty fault prefix:
/// the bug is schedule-only, no injected fault is needed to expose it.
#[test]
fn minimize_isolates_schedule_only_failures() {
    let opts = VoprOptions {
        canary: true,
        serve: false,
    };
    // Find a canary-failing seed with a non-empty fault plan first.
    let seed = (0..16u64)
        .find(|&s| {
            let r = harness::run_seed(s, &opts);
            !r.violations.is_empty() && !r.plan.faults.is_empty()
        })
        .expect("some seed in 0..16 fails the canary with faults planned");
    let (len, prefix, violations) = harness::minimize(seed, &opts);
    assert_eq!(len, 0, "canary needs no faults, got prefix {prefix}");
    assert!(violations.iter().any(|v| v.contains("commit-order")));
}
