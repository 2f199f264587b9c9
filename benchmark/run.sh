#!/usr/bin/env bash
# The repository's benchmark, one command: build `mem2` (release) and the
# benchmark package offline, then run it. Arguments go to mem2-benchmark
# (see README.md): --workload NAME|all, --seed N, --seconds S, --trace 0|1,
# --quick; or `check A.json B.json`.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "benchmark/run.sh: no mem2 sources next to benchmark/ — nothing to measure" >&2
    exit 2
fi

# One target directory for both builds when the caller names one (they
# share the crates' artefacts); otherwise each workspace keeps its own.
root_target="${CARGO_TARGET_DIR:-target}"
bench_target="${CARGO_TARGET_DIR:-benchmark/target}"

# Cargo's progress goes to stderr; stdout carries only the benchmark's.
cargo build --release --offline --quiet --bin mem2 >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

if [[ "${1:-}" == "check" ]]; then
    exec "$bench_target/release/mem2-benchmark" "$@"
fi
exec "$bench_target/release/mem2-benchmark" --mem2 "$root_target/release/mem2" "$@"
