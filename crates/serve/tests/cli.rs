//! The batch CLI refuses flag values the engine and the core builders
//! assert on with its usage text and exit status 2, not a panic (101).

use std::process::Command;

#[test]
fn out_of_range_batch_flags_print_usage_and_exit_2() {
    for flag in [["--xlen", "3"], ["--xlen", "33"], ["--threads", "0"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_veloct"))
            .args(["--builtin", "rocketlite"])
            .args(flag)
            .output()
            .expect("run veloct");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {stderr}");
        assert!(stderr.contains(flag[0]), "{flag:?} not named in: {stderr}");
        assert!(stderr.contains("usage: veloct"), "{flag:?}: {stderr}");
    }
}
