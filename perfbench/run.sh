#!/usr/bin/env bash
# Builds the benchmark and the `ringsim` binary it drives, then runs it:
#
#   bash perfbench/run.sh --workload <ring64|bus64|sweep> --seed <n> \
#       --seconds <s> --trace <0|1>
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR, by default
# .bench_build; build output goes to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# One malloc arena: with one per thread, which arenas keep freed memory
# varies from run to run, and the sweep's peak RSS read 35 or 42 MiB.
export MALLOC_ARENA_MAX=1
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet --bin ringsim >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --ringsim "$CARGO_TARGET_DIR/release/ringsim" "$@"
