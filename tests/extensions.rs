//! Tests for the implemented future-work extension, **Impl-type
//! predicates** (§5.2.1): conditional `valid → InSafeSet(uop)` predicates
//! make example masking unnecessary on out-of-order cores.

mod common;

use common::boom_set;
use hh_suite::smt::Predicate;
use hh_suite::uarch::boomlite::{boom_lite, BoomVariant};
use hh_suite::veloct::{Masking, Veloct, VeloctConfig};

/// The headline extension result: without masking, plain learning fails
/// (`Masking::Raw`), but with Impl predicates enabled it succeeds and the
/// invariant contains a conditional predicate.
#[test]
fn impl_predicates_replace_masking() {
    let design = boom_lite(BoomVariant::Small, 16);
    let safe = boom_set();

    // The paper's pipeline: masked examples.
    let plain = Veloct::with_config(
        &design,
        VeloctConfig {
            threads: 1,
            pairs_per_instr: 1,
            ..VeloctConfig::default()
        },
    );
    // Unmasked examples with the masking annotations as guards. (The
    // unmasked failure case, `Masking::Raw`, is ablation arm 2 of
    // `experiments`. Here we check the extension.)
    let with_impl = Veloct::with_config(
        &design,
        VeloctConfig {
            threads: 1,
            pairs_per_instr: 1,
            masking: Masking::Impl,
            ..VeloctConfig::default()
        },
    );
    let masked = plain.learn(&safe);
    let unmasked_impl = with_impl.learn(&safe);

    let inv_masked = masked.invariant.expect("masked learning works");
    let inv_impl = unmasked_impl
        .invariant
        .expect("Impl predicates must recover unmasked learnability");
    let n_impl = inv_impl
        .preds()
        .iter()
        .filter(|p| matches!(p, Predicate::Impl { .. }))
        .count();
    assert!(n_impl >= 1, "expected at least one conditional predicate");
    // Same order of invariant size as the masked run.
    assert!(inv_impl.len() <= 2 * inv_masked.len());
}
