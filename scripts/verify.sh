#!/usr/bin/env bash
# Full verify flow: Release build, then the static-analysis leg
# (updp2p-lint + clang-tidy, docs/static-analysis.md), then tier-1 tests in
# Release (including the multi-process live harness, label
# `integration-live`), then an ASan+UBSan build that
# re-runs the test suite and a micro_core smoke pass (one quick iteration of
# every hot-path bench) under the sanitizers, then a TSan build that runs
# the concurrency-bearing suites (sweep pool, sharded rounds, sharded bus,
# golden determinism — including ShardInvariance at 8 threads) plus the
# event-loop/timer-wheel runtime suites.
#
# After the Release ctest leg a bench-regression guard re-runs the guarded
# hot-path benchmarks (BM_SimulatedUpdate10k, BM_SimulatedUpdate10kWire,
# BM_BuildForwardListInto, BM_BusCollect, BM_StoreAppend, BM_StoreReplay10k)
# five times each and compares the median ns/op against the checked-in
# BENCH_core.json, captured the same way (micro_core
# --benchmark_repetitions=5); a >15% regression fails the verify. The Wire
# row guards the zero-copy serialized path specifically — it is the one a
# codec or frame-path change degrades first; BM_BusCollect guards the
# sharded bus exchange (offline drop + linear placement); the Store rows
# guard the durable append (paid per receipt before the ack) and the
# crash-recovery replay pipeline. The guard only compares runs from the same
# host (cpu_model and usable_threads) with the same repetition count;
# otherwise it fails with the re-capture command instead of comparing. Opt
# out with --skip-bench-guard on busy or differently-provisioned machines.
#
# The deterministic chaos harness (docs/testing.md) runs its test suite as
# part of tier-1 (ctest label `chaos`). --chaos-seeds N adds a deeper leg:
# an N-seed sweep of every builtin scenario through the real updp2p-chaos
# binary, with the sweep parallelised across cores — any property
# violation fails the verify and prints the failing (scenario, seed) pair
# to replay.
#
# Usage: scripts/verify.sh [--skip-sanitizers] [--skip-bench-guard]
#                          [--update-lint-baseline] [--chaos-seeds N]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
SKIP_SAN=0
SKIP_BENCH_GUARD=0
UPDATE_LINT_BASELINE=0
CHAOS_SEEDS=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --skip-sanitizers) SKIP_SAN=1 ;;
    --skip-bench-guard) SKIP_BENCH_GUARD=1 ;;
    --update-lint-baseline) UPDATE_LINT_BASELINE=1 ;;
    --chaos-seeds) shift; CHAOS_SEEDS="${1:?--chaos-seeds needs a count}" ;;
    --chaos-seeds=*) CHAOS_SEEDS="${1#*=}" ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

echo "==> tier-1: Release build"
cmake --preset release
cmake --build --preset release -j "${JOBS}"

# Lint leg (docs/static-analysis.md). Runs before the test suites and the
# sanitizer legs so convention breaks fail fast; --skip-sanitizers does NOT
# skip it. updp2p-lint enforces the project rules (determinism,
# rng-discipline, iteration-order, wire-taint, probe-trust, shard-guard,
# assert-discipline, suppression-reason); findings are gated by
# tools/lint/lint-baseline.txt (stale entries fail — fixed code keeps its
# baseline honest) and the SARIF artifact lands at build/lint.sarif for CI
# consumers, shape-checked by scripts/check_lint_baseline.py. clang-tidy
# runs the curated .clang-tidy set over compile_commands.json when the
# binary exists, and is skipped with a notice otherwise (the container
# image has no clang frontend).
if [[ "${UPDATE_LINT_BASELINE}" == "1" ]]; then
  echo "==> lint: regenerating tools/lint/lint-baseline.txt"
  ./build/tools/lint/updp2p-lint --root . \
    --write-baseline tools/lint/lint-baseline.txt
fi
echo "==> lint: updp2p-lint over src/ bench/ examples/ (SARIF: build/lint.sarif)"
./build/tools/lint/updp2p-lint --root . \
  --baseline tools/lint/lint-baseline.txt \
  --format sarif --output build/lint.sarif
python3 scripts/check_lint_baseline.py build/lint.sarif
if command -v clang-tidy >/dev/null 2>&1; then
  echo "==> lint: clang-tidy (curated .clang-tidy) over compile_commands.json"
  mapfile -t TIDY_SOURCES < <(find src tools -name '*.cpp' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p build -quiet "${TIDY_SOURCES[@]}"
  else
    clang-tidy -p build --quiet "${TIDY_SOURCES[@]}"
  fi
else
  echo "==> lint: clang-tidy not found; skipping (.clang-tidy is the config)"
fi

echo "==> tier-1: Release ctest"
ctest --preset release -j "${JOBS}"

if [[ "${CHAOS_SEEDS}" -gt 0 ]]; then
  echo "==> chaos: ${CHAOS_SEEDS}-seed sweep over every builtin scenario"
  while read -r scenario _; do
    ./build/examples/updp2p-chaos --scenario "${scenario}" \
      --sweep-seeds "${CHAOS_SEEDS}" --threads "${JOBS}" \
      --data-root "build/chaos-sweep/${scenario}"
  done < <(./build/examples/updp2p-chaos --list)
fi

if [[ "${SKIP_BENCH_GUARD}" == "1" ]]; then
  echo "==> bench guard skipped (--skip-bench-guard)"
else
  echo "==> bench guard: guarded hot-path benches vs checked-in BENCH_core.json"
  ./build/bench/micro_core --json=build/BENCH_guard.json \
    --benchmark_repetitions=5 \
    "--benchmark_filter=^BM_SimulatedUpdate10k\$|^BM_SimulatedUpdate10kWire\$|^BM_BuildForwardListInto\$|^BM_BusCollect\$|^BM_StoreAppend\$|^BM_StoreReplay10k\$" \
    >/dev/null
  python3 scripts/check_bench_regression.py BENCH_core.json \
    build/BENCH_guard.json --bench BM_SimulatedUpdate10k \
    --bench BM_SimulatedUpdate10kWire \
    --bench BM_BuildForwardListInto \
    --bench BM_BusCollect \
    --bench BM_StoreAppend --bench BM_StoreReplay10k --max-regression 0.15
fi

if [[ "${SKIP_SAN}" == "1" ]]; then
  echo "==> sanitizers skipped (--skip-sanitizers)"
  exit 0
fi

echo "==> sanitizers: ASan+UBSan build + ctest + micro_core --smoke"
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "${JOBS}"
ctest --preset asan-ubsan -j "${JOBS}"
./build-asan/bench/micro_core --smoke

echo "==> sanitizers: TSan build + concurrency suites"
# The tsan test preset filters to the suites that actually spawn threads or
# drive the live event loop: the work-stealing sweep pool, the sharded
# round engine and bus, the golden-determinism suite (ShardInvariance
# drives 8 shard threads), the wire-equivalence suite (each shard thread
# reads the encoded frames in other shards' round outboxes), the runtime layer (timer wheel, PeerRuntime,
# loopback golden, inproc/UDP transports — the UDP suite exercises real
# kernel socket I/O under TSan), and the durable-store suites (PeerRuntime
# owns a ReplicaStore, so the WAL/snapshot/recovery + fuzz paths run under
# all three sanitizer legs).
cmake --preset tsan
cmake --build --preset tsan -j "${JOBS}" \
  --target sim_tests net_tests runtime_tests store_tests chaos_tests
ctest --preset tsan -j "${JOBS}"

echo "==> verify OK"
