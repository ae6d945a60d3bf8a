#!/usr/bin/env sh
# Local CI gate: build, full test suite, lints, formatting.
set -eu

cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== feature matrix: no-default-features / default / simd =="
# The `simd` feature is a pure throughput knob with a bit-identity contract;
# every configuration must build and pass the same suite.
cargo build --workspace --no-default-features
cargo test -q --workspace --no-default-features
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

echo "== codec bench: decode-stage latency per format -> BENCH_codecs.json =="
# Streams a per-format synthetic corpus through DirectorySource and reads
# decam_engine_stage_seconds{stage="decode"}; doubles as an encode->decode
# smoke at corpus scale (non-zero exit on any decode failure).
cargo run --release -p decamouflage-bench --bin codecs -- 48 3 -o BENCH_codecs.json

echo "== codec latency gate: png/jpeg decode budgets from BENCH_codecs.json =="
# Regression gate over the numbers just written: budgets sit ~2x above the
# recorded planar baseline (png ~780 us, jpeg ~775 us at 128x128/48 images)
# so shared-runner noise passes but an accidental O(n) regression in the
# defilter/IDCT/plane-scatter path does not.
PNG_BUDGET_US=1500 JPEG_BUDGET_US=1500 awk '
    /"png"/  { if ($0 ~ /decode_us_per_image/) { split($0, a, /[:,]/); png  = a[3] } }
    /"jpeg"/ { if ($0 ~ /decode_us_per_image/) { split($0, a, /[:,]/); jpeg = a[3] } }
    END {
        png_budget  = ENVIRON["PNG_BUDGET_US"]  + 0
        jpeg_budget = ENVIRON["JPEG_BUDGET_US"] + 0
        if (png == "" || jpeg == "") { print "codec gate: missing png/jpeg entries in BENCH_codecs.json"; exit 1 }
        printf "png  %8.1f us/image (budget %d)\n", png,  png_budget
        printf "jpeg %8.1f us/image (budget %d)\n", jpeg, jpeg_budget
        bad = 0
        if (png  + 0 > png_budget)  { print "FAIL: png decode over budget";  bad = 1 }
        if (jpeg + 0 > jpeg_budget) { print "FAIL: jpeg decode over budget"; bad = 1 }
        exit bad
    }' BENCH_codecs.json

echo "== service load: overload contract + BENCH_service.json =="
# Storm an undersized server (2 handlers + queue 2) with 2x+ its capacity of
# mixed traffic: zero requests may stall past deadline+grace, the in-flight
# gauge must return to 0 after the drain, and the latency quantiles
# (p50/p99/p999) land in BENCH_service.json. Exit code is the verdict.
cargo run --release -p decamouflage-bench --bin loadgen -- -o BENCH_service.json

echo "== perf smoke: detector gates + SSIM stage share =="
# Best-of-N latency gates from the bench harness (engine < 1500 us/image,
# batch <= 1.05x, streaming <= 1.02x, telemetry <= 1.02x) in smoke mode, then
# the stage profiler asserting SSIM consumes < 50% of scoring wall-clock.
BENCH_SMOKE=1 cargo bench -p decamouflage-bench --bench detectors --features simd
cargo run --release -p decamouflage-bench --bin stage_profile --features simd

echo "== cargo clippy =="
cargo clippy --all-targets -- -D warnings

echo "== cargo doc =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo fmt --check =="
cargo fmt --check

echo "CI OK"
