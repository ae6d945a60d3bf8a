#!/usr/bin/env bash
# Builds the `decamouflage` CLI (release, `simd`) and the benchmark from
# source, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash crates/bench/src/bin/benchmark/bench.sh --workload scan-paper --seed 1 --seconds 24 --trace 0
#
# Both builds share one target directory ($CARGO_TARGET_DIR, default
# `target`), so the benchmark finds the CLI next to its own executable.
set -euo pipefail

here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --quiet --release --offline --manifest-path Cargo.toml --features simd --bin decamouflage
cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
