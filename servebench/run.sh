#!/usr/bin/env bash
# Build the benchmark and the shipped sesr-netd from source, then run it:
#   bash servebench/run.sh --workload camera --seed 1 --seconds 30 --trace 0
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's own messages go to standard error.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p sesr-net --bin sesr-netd >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/servebench" "$@"
