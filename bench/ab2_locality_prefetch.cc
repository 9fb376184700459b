// Ablation A2: locality and prefetching.
//
// Two questions from the paper:
//  * what does a remote method invocation cost vs. a local one? (§3.1: the
//    runtime uses cheap function calls locally, RPCs remotely)
//  * does the iterator prefetcher make remote data as cheap as local? (§4:
//    "preprocessing images from remote memory proclets is as fast as
//    preprocessing local images")
//
// Part 1 measures invocation round trips. Part 2 runs a compute-over-vector
// scan in three modes: data local, data remote + prefetch, data remote
// without prefetch, across per-element compute intensities.

#include <cstdio>
#include <string>

#include "bench_json.h"
#include "quicksand/common/bytes.h"
#include "quicksand/ds/stream.h"
#include "quicksand/proclet/memory_proclet.h"
#include "quicksand/trace/bench_trace.h"

namespace quicksand {
namespace {

BenchTrace* g_trace = nullptr;
BenchJson g_json;
int g_runs = 0;

struct Env {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  Env() {
    for (int i = 0; i < 2; ++i) {
      MachineSpec spec;
      spec.cores = 8;
      spec.memory_bytes = 8 * kGiB;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
    (void)AttachBenchTracer(g_trace, *rt, "run_" + std::to_string(++g_runs));
  }
};

void InvocationCosts() {
  std::printf("--- invocation round trip (64B args, 8B result) ---\n");
  for (const bool remote : {false, true}) {
    Env env;
    const Ctx ctx = env.rt->CtxOn(0);
    PlacementRequest req;
    req.heap_bytes = 64 * kKiB;
    req.pinned = remote ? MachineId{1} : MachineId{0};
    auto create = env.rt->Create<MemoryProclet>(ctx, req);
    Ref<MemoryProclet> proclet = *env.sim.BlockOn(std::move(create));

    constexpr int kCalls = 1000;
    const SimTime start = env.sim.Now();
    for (int i = 0; i < kCalls; ++i) {
      auto call = proclet.Call(
          ctx, [](MemoryProclet& p) -> Task<int64_t> {
            co_return static_cast<int64_t>(p.object_count());
          },
          /*request_bytes=*/64);
      (void)env.sim.BlockOn(std::move(call));
    }
    const Duration per_call = (env.sim.Now() - start) / kCalls;
    std::printf("%8s call: %s per invocation\n", remote ? "remote" : "local",
                per_call.ToString().c_str());
    g_json.AddRow()
        .Str("scenario", "invocation")
        .Str("mode", remote ? "remote" : "local")
        .Num("per_call_us", static_cast<double>(per_call.nanos()) / 1e3);
  }
}

Task<Duration> ScanWithCompute(Env& env, ShardedVector<std::string> vec, int64_t n,
                               Duration per_element, bool prefetch) {
  VectorStream<std::string> stream(vec, 0, static_cast<uint64_t>(n), 32, prefetch);
  const Ctx ctx = env.rt->CtxOn(0);
  const SimTime start = env.sim.Now();
  for (;;) {
    auto next = stream.Next(ctx);
    std::optional<std::string> v = co_await std::move(next);
    if (!v.has_value()) {
      break;
    }
    if (per_element > Duration::Zero()) {
      co_await env.cluster.machine(0).cpu().Run(per_element);
    }
  }
  co_return env.sim.Now() - start;
}

void PrefetchSweep() {
  // 32 KiB elements: each one costs ~2.6us of wire time, so the per-element
  // compute sweep crosses the interesting regime where communication rivals
  // computation (§5: "when compute intensity is low, communication costs...
  // might outweigh the utilization benefits").
  std::printf("\n--- scan of 2048 x 32KiB elements, compute on machine 0 ---\n");
  std::printf("%14s %12s %16s %18s %12s\n", "per-elem work", "local",
              "remote+prefetch", "remote no-prefetch", "pf speedup");
  constexpr int64_t kElems = 2048;
  for (const int64_t work_us : {0, 1, 3, 10, 30}) {
    Duration results[3];
    for (int mode = 0; mode < 3; ++mode) {
      Env env;
      const Ctx ctx = env.rt->CtxOn(0);
      ShardedVector<std::string>::Options options;
      options.max_shard_bytes = 4 * kMiB;
      auto vec = *env.sim.BlockOn(ShardedVector<std::string>::Create(ctx, options));
      for (int64_t i = 0; i < kElems; ++i) {
        auto push = vec.PushBack(ctx, std::string(32 * kKiB, 'e'));
        QS_CHECK(env.sim.BlockOn(std::move(push)).ok());
      }
      env.sim.BlockOn(vec.router().Refresh(ctx));
      const MachineId data_home = (mode == 0) ? 0 : 1;
      for (const ShardInfo& s : vec.router().cached_shards()) {
        QS_CHECK(env.sim.BlockOn(env.rt->Migrate(s.proclet, data_home)).ok());
      }
      const bool prefetch = (mode != 2);
      results[mode] = env.sim.BlockOn(ScanWithCompute(
          env, vec, kElems, Duration::Micros(work_us), prefetch));
    }
    std::printf("%12lldus %12s %16s %18s %11.2fx\n",
                static_cast<long long>(work_us), results[0].ToString().c_str(),
                results[1].ToString().c_str(), results[2].ToString().c_str(),
                results[2] / results[1]);
    g_json.AddRow()
        .Str("scenario", "prefetch_scan")
        .Int("work_us", work_us)
        .Num("local_ms", static_cast<double>(results[0].nanos()) / 1e6)
        .Num("remote_prefetch_ms", static_cast<double>(results[1].nanos()) / 1e6)
        .Num("remote_noprefetch_ms", static_cast<double>(results[2].nanos()) / 1e6)
        .Num("prefetch_speedup", results[2] / results[1]);
  }
  std::printf("\nshape to check: without prefetch, remote scans pay fetch time on\n"
              "top of compute; with prefetch, once per-element compute exceeds\n"
              "per-element wire time (~2.6us here), remote matches local — the\n"
              "Fig. 2 'remote preprocessing as fast as local' effect.\n");
}

}  // namespace
}  // namespace quicksand

int main(int argc, char** argv) {
  quicksand::BenchTrace trace = quicksand::BenchTrace::FromArgs(argc, argv);
  quicksand::g_trace = &trace;
  std::printf("=== A2: locality and prefetching ===\n");
  quicksand::InvocationCosts();
  quicksand::PrefetchSweep();
  quicksand::g_json.WriteFile("results/BENCH_ab2.json");
  return 0;
}
