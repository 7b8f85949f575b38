#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#   benchmark/run.sh [--seed S] [--rounds R] [--out FILE]
#   benchmark/run.sh --compare A.json B.json
#
# Runs from the repository root so that socket and metrics paths under
# benchmark/out stay short and relative.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/clustream-benchmark" "$@"
