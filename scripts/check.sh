#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the full workspace test suite.
# Network-free — every dependency is an in-tree path crate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test --workspace =="
cargo test --workspace -q

echo "== perfbench harness (separate workspace over the public API) =="
# perfbench/ is its own cargo workspace, so the workspace build and tests
# above never compile it; this gate catches public-API changes that break
# the benchmark harness.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== forced-scalar differential lane (ORPHEUS_FORCE_SCALAR=1) =="
# On SIMD hosts the runtime dispatcher selects the AVX2+FMA micro-kernel,
# so the default test run proves SIMD correctness. This lane re-runs the
# scalar-vs-SIMD differential suites with the dispatcher pinned to the
# scalar micro-kernel (through EngineBuilder's force_scalar default), so
# the scalar path keeps its own green proof on every host.
ORPHEUS_FORCE_SCALAR=1 cargo test -q -p orpheus-gemm --test simd_parity
ORPHEUS_FORCE_SCALAR=1 cargo test -q -p orpheus --test simd_differential

echo "== pass-pipeline sanitizer (debug assertions) =="
# Debug builds run the orpheus-verify sanitizer after every simplification
# pass; this exercises it on the standard pipeline plus the broken-pass
# attribution tests.
cargo test -q -p orpheus-verify --test sanitizer

echo "== fuzz smoke (release, all zoo models) =="
# The workspace tests already run a >=10k-iteration campaign on the small
# models; this release pass additionally mutates all five Figure 2 exports.
cargo build --release -p orpheus-cli -q
./target/release/orpheus-cli fuzz --model all --iters 400

echo "== lint (release, all zoo models + ONNX round trip) =="
# Every zoo model must verify clean (0 errors); the file path exercises the
# ONNX import half of the lint pipeline.
./target/release/orpheus-cli lint --model all
LINT_TMP="$(mktemp -d)"
trap 'rm -rf "$LINT_TMP"' EXIT
./target/release/orpheus-cli export --model wrn40_2 --out "$LINT_TMP/wrn40_2.onnx"
./target/release/orpheus-cli lint "$LINT_TMP/wrn40_2.onnx" --json > /dev/null

echo "== plan soundness (release, all zoo models x full bucket ladder) =="
# The static execution-plan checker (ORV015-ORV022) proves every model's
# arena-reuse plan sound at every batch bucket up to 8: no use after
# reclaim, no aliasing of live slots, valid view-moves, consistent ladder.
./target/release/orpheus-cli lint --model all --max-batch 8 --check-plan

echo "== plan sanitizer (debug assertions + corruption hook) =="
# Debug builds re-prove plan soundness inside Engine::load; the corruption
# hook injects one known-bad mutation per ORV code and the load must be
# rejected with the offending bucket and code attributed.
cargo test -q -p orpheus --test plan_sanitizer

echo "== zero-allocation arena executor =="
# Counting-allocator proof that steady-state Session::run never touches the
# heap, plus zoo-wide bit-identity vs. the no-reuse oracle session (the same
# executor over a one-buffer-per-slot plan) and the runtime-footprint <=
# static-prediction pin.
cargo test -q -p orpheus --test zero_alloc --test planned_execution

echo "== bench regression gate (release, quick budgets) =="
# The performance regression observatory: re-measure the zoo with small
# iteration budgets and compare against the committed baseline. Latency gets
# a generous budget (baselines travel across machines and CI neighbours are
# noisy); arena bytes and steady-state allocation counts are deterministic
# and compare strictly. Exit code 2 = regression.
./target/release/orpheus-cli bench --quick \
  --out "$LINT_TMP/BENCH_check.json" \
  --compare results/bench_baseline.json --budget-pct 300

echo "== session-vs-no-reuse repeat smoke (release) =="
# Arena reuse must not regress steady-state latency: fail if the arena
# session's p50 exceeds 3x the no-reuse session's (generous bound — debug-free
# release numbers are typically at parity or better).
session_p50="$(./target/release/orpheus-cli repeat --model tiny_cnn --runs 30 --warmup 5 \
  | awk '/^ *p50/ { printf "%d", $2 * 1000 }')"
no_reuse_p50="$(./target/release/orpheus-cli repeat --model tiny_cnn --runs 30 --warmup 5 --no-reuse \
  | awk '/^ *p50/ { printf "%d", $2 * 1000 }')"
echo "p50: session ${session_p50}us, no-reuse ${no_reuse_p50}us"
if [ -z "$session_p50" ] || [ -z "$no_reuse_p50" ]; then
  echo "FAIL: could not parse repeat p50 output" >&2
  exit 1
fi
if [ "$session_p50" -gt $((no_reuse_p50 * 3)) ]; then
  echo "FAIL: session p50 ${session_p50}us > 3x no-reuse p50 ${no_reuse_p50}us" >&2
  exit 1
fi

echo "== serve smoke (release: clean + fault-injected load-gen) =="
# The serving core must shed-or-serve every request, keep every injected
# panic isolated (worker panics: 0), and drain clean — both on a healthy
# model and under 25% randomized layer faults. The binary itself exits
# non-zero if any worker dies or a request never resolves.
./target/release/orpheus-cli serve --model tiny_cnn --load-gen --hw 8 \
  --requests 200 --clients 4 --workers 2 --queue-depth 16 \
  | tee "$LINT_TMP/serve_clean.txt"
grep -q "drain: clean" "$LINT_TMP/serve_clean.txt"
grep -q "worker panics: 0" "$LINT_TMP/serve_clean.txt"
./target/release/orpheus-cli serve --model tiny_cnn --load-gen --hw 8 \
  --requests 300 --clients 6 --workers 3 --queue-depth 16 \
  --fault pack --fault-mode flaky:250:7 \
  | tee "$LINT_TMP/serve_faulted.txt"
grep -q "drain: clean" "$LINT_TMP/serve_faulted.txt"
grep -q "worker panics: 0" "$LINT_TMP/serve_faulted.txt"

echo "== batched serve smoke (release: dynamic batching vs serial) =="
# Dynamic batching must coalesce (at least one batched run), drain clean,
# and never throughput-regress a serial server at equal worker count.
# Protocol: one discarded warm-up campaign, then three interleaved rounds
# per mode taking the best of each — load-gen throughput jitters with CI
# neighbours, and interleaving keeps the comparison honest when the whole
# machine speeds up or slows down mid-smoke.
serve_rps() { # serve_rps <max_batch> <tee_file>
  ./target/release/orpheus-cli serve --model tiny_cnn --load-gen --hw 32 \
    --requests 600 --clients 16 --workers 2 --queue-depth 64 \
    --max-batch "$1" --batch-wait-us 200 \
    | tee "$2" | awk -F'[ ,]+' '/^load-gen:/ { printf "%d", $4 }'
}
serve_rps 8 "$LINT_TMP/serve_warmup.txt" > /dev/null
batched_rps=0
serial_rps=0
for round in 1 2 3; do
  b="$(serve_rps 8 "$LINT_TMP/serve_batched.txt")"
  s="$(serve_rps 1 "$LINT_TMP/serve_serial.txt")"
  if [ -z "$b" ] || [ -z "$s" ]; then
    echo "FAIL: could not parse load-gen throughput (round $round)" >&2
    exit 1
  fi
  grep -q "drain: clean" "$LINT_TMP/serve_batched.txt"
  grep -q "worker panics: 0" "$LINT_TMP/serve_batched.txt"
  grep -q "batched:" "$LINT_TMP/serve_batched.txt"
  grep -q "drain: clean" "$LINT_TMP/serve_serial.txt"
  if [ "$b" -gt "$batched_rps" ]; then batched_rps="$b"; fi
  if [ "$s" -gt "$serial_rps" ]; then serial_rps="$s"; fi
done
echo "throughput (best of 3): batched ${batched_rps} req/s, serial ${serial_rps} req/s"
if [ "$batched_rps" -lt "$serial_rps" ]; then
  echo "FAIL: batched throughput ${batched_rps} req/s below serial ${serial_rps} req/s" >&2
  exit 1
fi

echo "all checks passed"
