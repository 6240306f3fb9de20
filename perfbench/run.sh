#!/usr/bin/env bash
# Builds glsc-serve from the repository's workspace and this benchmark,
# then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload figure-suite --seed 1 --seconds 35 --trace 0
#
# Build output goes to stderr; stdout carries only the benchmark's own
# lines, the last of which is the result. CARGO_TARGET_DIR defaults to
# .bench_build in the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates/serve" ]; then
    echo "error: run from the repository root (no workspace at $root)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p glsc-serve --bin glsc-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/glsc-serve" "$@"
