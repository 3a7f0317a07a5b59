#!/usr/bin/env bash
# Builds the benchmark with --release and runs it with the arguments given:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --aa | --quick
# Run from anywhere; results, traces and data directories go to benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/lms-benchmark" --out "$here/out" "$@"
