#!/usr/bin/env bash
# Build the benchmark and the `fleet` CLI it drives into one target
# directory, so the two binaries are siblings, then run the benchmark
# with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh run --seed 13825
#   bash benchmark/run.sh --workload paper_street --seed 1 --seconds 10 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p threegol-bench --bin fleet
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
