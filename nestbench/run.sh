#!/usr/bin/env bash
# Build the server under test and the benchmark into one target directory,
# then hand every argument to the benchmark:
#   nestbench/run.sh --workload point-read --seed 1 --seconds 20 --trace 0
#   nestbench/run.sh run|trace --workload <w> [--seed N] ...
#   nestbench/run.sh compare a.jsonl b.jsonl
# Cargo's own output goes to stderr; stdout is the benchmark's alone.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --bin nestdb 1>&2
cargo build --release --quiet --manifest-path nestbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/nestbench" "$@"
