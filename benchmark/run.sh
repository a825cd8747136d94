#!/bin/sh
# "Same code agrees with itself": build, run the whole benchmark twice, and
# compare the second result file against the first. Extra arguments go to
# both runs (e.g. `./run.sh --quick`, `./run.sh --seed 7`).
set -eu
cd "$(dirname "$0")"
cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/hh-benchmark"
mkdir -p results
"$bin" run --out results/selfcheck_a.json "$@"
"$bin" run --out results/selfcheck_b.json "$@"
"$bin" compare results/selfcheck_a.json results/selfcheck_b.json
