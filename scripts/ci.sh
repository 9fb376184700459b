#!/usr/bin/env bash
# CI entry point: tier-1 tests (plain + ASan/UBSan via scripts/check.sh) and
# the smoke gates (durability, trace determinism, partition failover,
# overload control, autoscale, chaos, memoization), each of which fails on
# nondeterminism between two same-seed runs, plus the ds split/merge record
# gate (ab3, kv_rebalance) and a short run of every micro_sim benchmark.
#
# Usage: scripts/ci.sh            # full gate
#        scripts/ci.sh --soak N   # chaos soak only: N seeded schedules
#                                 # through the chaos engine (default 50)

set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

if [[ "${1:-}" == "--soak" ]]; then
  seeds="${2:-50}"
  echo "== chaos soak: $seeds seeded schedules vs the invariant oracles =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$jobs" --target ab11_chaos
  ./build/bench/ab11_chaos --seeds "$seeds"
  echo "chaos soak: all $seeds schedules passed the oracles"
  exit 0
fi

echo "== tier-1: plain build + ctest -L tier1 =="
cmake -B build -S . >/dev/null
cmake --build build -j"$jobs"
ctest --test-dir build -L tier1 --output-on-failure

echo "== tier-1: ASan/UBSan build + ctest =="
scripts/check.sh --sanitize-only

echo "== durability smoke: two same-seed recovery runs must be bit-identical =="
./build/bench/ab7_recovery --smoke

echo "== trace smoke: same-seed migration runs must agree on the trace digest =="
./build/bench/ab1_migration_latency --smoke

echo "== partition smoke: gray-failure failover must be deterministic and exactly-once =="
./build/bench/ab8_partition --smoke

echo "== overload smoke: collapse without controls, plateau with, deterministically =="
./build/bench/ab9_overload --smoke

echo "== autoscale smoke: hot shard splits, settle p99 inside SLO, deterministically =="
./build/bench/ab10_autoscale --smoke

echo "== chaos smoke: fixed schedule corpus survives; the reintroduced reshape bug is caught and shrunk =="
./build/bench/ab11_chaos --smoke

echo "== memo smoke: hit-rate, cache-first harvest and stale-serve gates, deterministically =="
./build/bench/ab12_memo --smoke

echo "== scale smoke: event-core digests stable across runs, throughput above floor =="
./build/bench/scale_sim --smoke

echo "== ds reshape gate: split/merge sim-time outputs match the committed records =="
./build/bench/ab3_split_merge >/dev/null
./build/examples/kv_rebalance > results/example_kv_rebalance.txt
git diff --exit-code results/BENCH_ab3.json results/example_kv_rebalance.txt

echo "== micro_sim: every microbenchmark runs to completion =="
./build/bench/micro_sim --benchmark_min_time=0.01 >/dev/null

echo "== chaos smoke (sanitized): same gate under ASan/UBSan =="
./build-asan/bench/ab11_chaos --smoke

echo "== memo smoke (sanitized): same gate under ASan/UBSan =="
./build-asan/bench/ab12_memo --smoke

echo "CI: all gates passed"
