#!/usr/bin/env bash
# CI entry point: tier-1 tests (plain + ASan/UBSan via scripts/check.sh) and
# the smoke gates (durability, trace determinism, partition failover,
# overload control, autoscale, chaos, memoization), each of which fails on
# nondeterminism between two same-seed runs, plus the sim-time record gate
# (full runs of every deterministic ablation: ab1-12, each of which writes
# its results/BENCH_ab*.json; every example's stdout; the
# paper's figures 1-3) and a short run of every micro_sim benchmark. No
# --smoke run writes a record, nor ab11's --seeds and --one: only a plain
# full run does. The binaries whose GPU fibers are still parked inside a
# proclet call at simulator teardown (fig3, dnn_pipeline) also run under
# ASan/UBSan and must match the same records. It ends by failing if any
# gate left a committed record under results/ changed. Left out of the
# record gate: scale_sim (a host-time record).
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

echo "== scale smoke: event-core digests match the pinned event order, throughput above floor =="
./build/bench/scale_sim --smoke

echo "== sim-time record gate: ablation, example and figure outputs match the committed records =="
for bench in ab1_migration_latency ab2_locality_prefetch ab3_split_merge \
  ab4_placement_policies ab5_lazy_migration ab6_revocation ab7_recovery \
  ab8_partition ab9_overload ab10_autoscale ab11_chaos ab12_memo; do
  ./build/bench/"$bench" >/dev/null
done
for example in quickstart dnn_pipeline filler_app flat_storage_demo kv_rebalance; do
  ./build/examples/"$example" > results/example_"$example".txt
done
./build/bench/fig1_filler_migration > results/fig1_filler_migration.txt
./build/bench/fig2_imbalanced_pipeline > results/fig2_imbalanced_pipeline.txt
./build/bench/fig3_gpu_adaptation > results/fig3_gpu_adaptation.txt
git diff --exit-code results/BENCH_ab{1,2,3,4,5,6,7,8,9,10,11,12}.json \
  results/example_*.txt results/fig{1,2,3}_*.txt

echo "== micro_sim: every microbenchmark runs to completion =="
./build/bench/micro_sim --benchmark_min_time=0.01 >/dev/null

echo "== chaos smoke (sanitized): same gate under ASan/UBSan =="
./build-asan/bench/ab11_chaos --smoke

echo "== memo smoke (sanitized): same gate under ASan/UBSan =="
./build-asan/bench/ab12_memo --smoke

echo "== parked calls (sanitized): fig3 and dnn_pipeline tear down parked GPU pops, and match their records =="
./build-asan/bench/fig3_gpu_adaptation > results/fig3_gpu_adaptation.txt
./build-asan/examples/dnn_pipeline > results/example_dnn_pipeline.txt
git diff --exit-code results/fig3_gpu_adaptation.txt results/example_dnn_pipeline.txt

echo "== clean records: no gate rewrote a committed file under results/ =="
git diff --exit-code -- results/

echo "CI: all gates passed"
