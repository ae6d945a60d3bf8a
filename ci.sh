#!/usr/bin/env sh
# Local CI gate: build, full test suite, lints, formatting.
set -eu

cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== examples: every example runs to completion =="
# Examples are not covered by the test runs; each one asserts its own
# scenario, so a non-zero exit fails CI.
for file in examples/*.rs; do
    example="$(basename "$file" .rs)"
    echo "-- $example"
    cargo run --release -q --example "$example"
done

echo "== kernels (release): golden scores and bit identity =="
# The optimised build that `cargo build --release` ships and the benchmark
# runs; on an AVX CPU every dispatch takes its AVX kernel. The planar-layout
# contract pins engine ScoreVectors to the interleaved seed fixture
# (tests/golden_scores_v1.txt) bit for bit. The kernel crates' suites pin
# each AVX dispatch site to its scalar loop, the butterflies and the ln-free
# CSP counter to their oracles, every SSIM entry point to the staged
# `ssim_map` oracle, and the SSIM sweep's allocation budget. The debug runs
# of these suites, and of every fault-injection, telemetry, CLI, streaming,
# shard, service and codec suite, happen inside the workspace test run above.
cargo test --release --test planar_equivalence
cargo test --release -p decamouflage-spectral -p decamouflage-imaging -p decamouflage-metrics

echo "== benchmark package: build + unit tests =="
# The end-to-end benchmark (BENCHMARK.json) is a workspace of its own, so
# nothing above compiles it. Its unit tests include the replay's score
# bit-identity guard, and building it checks every public item it imports.
CARGO_TARGET_DIR=target cargo test --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

echo "== service load: overload contract + BENCH_service.json =="
# Storm an undersized server (2 handlers + queue 2) with 2x+ its capacity of
# mixed traffic: zero requests may stall past deadline+grace, the in-flight
# gauge must return to 0 after the drain, and the latency quantiles
# (p50/p99/p999) land in BENCH_service.json. Exit code is the verdict.
cargo run --release -p decamouflage-bench --bin loadgen -- -o BENCH_service.json

echo "== perf ledger + gates: stage_profile -> BENCH_stages.json =="
# The one perf harness. Writes decode µs/image per format and every engine
# telemetry series (pass, stages, per-method increments) at 128², the
# paper's 336²/448²/560² and the 512² reference, Gray and RGB; then gates on
# bit-identity to the per-method references, engine vs a fixed probe,
# batch/stream/telemetry overhead, SSIM share, dft(448²)/dft(512²) and the
# png/jpeg decode budgets. Exit code is the verdict.
cargo run --release -p decamouflage-bench --bin stage_profile

echo "== cargo clippy =="
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "== cargo doc =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo fmt --check =="
cargo fmt --check

echo "CI OK"
