#!/usr/bin/env sh
# Local CI gate: build, full test suite, lints, formatting.
set -eu

cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== feature matrix: simd =="
# The `simd` feature is a pure throughput knob with a bit-identity contract;
# with it on, the workspace must build and pass the same suite the default
# run above passed. (No workspace crate has a default feature, so the
# default run is also the no-default-features configuration.)
cargo build --release --workspace --features simd
cargo test -q --workspace --features simd

echo "== examples: every example runs to completion =="
# Examples are not covered by the test runs; each one asserts its own
# scenario, so a non-zero exit fails CI.
for file in examples/*.rs; do
    example="$(basename "$file" .rs)"
    echo "-- $example"
    cargo run --release -q --example "$example"
done

echo "== planar equivalence (release, simd): golden engine scores =="
# The planar-layout contract under optimised AVX kernels: engine
# ScoreVectors bit-identical to the interleaved seed fixture
# (tests/golden_scores_v1.txt). The debug runs of this suite, and of every
# fault-injection, telemetry, CLI, streaming, shard, service and codec
# suite, happen inside the workspace test runs above.
cargo test --release --test planar_equivalence --features simd

echo "== spectral kernels (release, simd): bit identity to the recursion =="
# The AVX butterflies, the in-place column strips among them, as the
# benchmark ships them: optimised, with `simd`. The suite pins every smooth
# length, the 2-D pass at the paper's sizes and the ln-free CSP counter to
# their oracles bit for bit.
cargo test --release -p decamouflage-spectral --features simd

echo "== SSIM row kernel (release, simd): bit identity to the staged planes =="
# The row-emitting convolution and the SSIM sweep on it, in the optimised
# `simd` build the benchmark ships: the row kernel against the reference
# convolution, every SSIM entry point against the staged `ssim_map` oracle
# (Gray and RGB, two candidates per sweep), and the sweep's allocation budget.
cargo test --release -p decamouflage-imaging -p decamouflage-metrics --features simd

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
cargo run --release -p decamouflage-bench --bin stage_profile --features simd

echo "== cargo clippy =="
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "== cargo doc =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo fmt --check =="
cargo fmt --check

echo "CI OK"
