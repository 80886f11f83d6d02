#!/usr/bin/env bash
# Builds the benchmark from source (offline, release) and runs one workload.
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR,
# or .bench_build when it is unset; cargo's messages go to stderr.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/pgmoe-e2ebench" "$@"
