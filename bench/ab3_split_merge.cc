// Ablation A3: split/merge cost and the disruption window (§3.3).
//
// "Splitting/merging resource proclets may briefly disrupt application
// performance as it blocks new proclet method invocations until it
// completes. However, Quicksand minimizes the performance impact by ensuring
// resource proclets are granular so that splits and merges are always fast."
//
// Sweep shard size; measure (a) the split latency, (b) the merge latency,
// and (c) the worst-case blocked-invocation latency observed by a client
// hammering the shard during the split.

#include <cstdio>
#include <string>

#include "bench_json.h"
#include "quicksand/adapt/shard_maintenance.h"
#include "quicksand/common/bytes.h"
#include "quicksand/trace/bench_trace.h"

namespace quicksand {
namespace {

BenchTrace* g_trace = nullptr;
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

using BlobVector = ShardedVector<std::string>;

// Fills one shard with `total_bytes` of payload in 4KiB elements.
BlobVector FillOneShard(Env& env, int64_t total_bytes) {
  const Ctx ctx = env.rt->CtxOn(0);
  BlobVector::Options options;
  options.max_shard_bytes = 4 * total_bytes;  // growth never splits
  auto vec = *env.sim.BlockOn(BlobVector::Create(ctx, options));
  const int64_t element = 4 * kKiB;
  for (int64_t added = 0; added < total_bytes; added += element) {
    auto push = vec.PushBack(ctx, std::string(static_cast<size_t>(element), 'x'));
    QS_CHECK(env.sim.BlockOn(std::move(push)).ok());
  }
  return vec;
}

Task<> Hammer(Env& env, BlobVector vec, bool* stop, LatencyHistogram* latencies) {
  const Ctx ctx = env.rt->CtxOn(0);
  while (!*stop) {
    const SimTime start = env.sim.Now();
    auto get = vec.Get(ctx, 0);
    (void)co_await std::move(get);
    latencies->Add(env.sim.Now() - start);
    co_await env.sim.Sleep(Duration::Micros(20));
  }
}

void Main() {
  std::printf("=== A3: split/merge cost vs shard size ===\n\n");
  std::printf("%12s %12s %12s %20s\n", "shard size", "split", "merge",
              "max blocked call");
  BenchJson json;
  for (const int64_t size :
       {64 * kKiB, 256 * kKiB, 1 * kMiB, 4 * kMiB, 16 * kMiB, 64 * kMiB}) {
    Env env;
    const Ctx ctx = env.rt->CtxOn(0);
    BlobVector vec = FillOneShard(env, size);
    env.sim.BlockOn(vec.router().Refresh(ctx));
    const ShardInfo donor = vec.router().cached_shards()[0];

    bool stop = false;
    LatencyHistogram client_latency;
    env.sim.Spawn(Hammer(env, vec, &stop, &client_latency), "hammer");
    env.sim.RunUntil(env.sim.Now() + Duration::Millis(1));

    const SimTime split_start = env.sim.Now();
    QS_CHECK(env.sim.BlockOn(SplitShard(ctx, vec, donor)).ok());
    const Duration split_time = env.sim.Now() - split_start;

    env.sim.RunUntil(env.sim.Now() + Duration::Millis(1));
    env.sim.BlockOn(vec.router().Refresh(ctx));
    const auto shards = vec.router().cached_shards();
    QS_CHECK(shards.size() == 2);
    // Merging requires a sealed right-hand shard; retire the tail first
    // (in the wild the vector has stopped growing by merge time).
    {
      QS_CHECK(env.sim.BlockOn(env.rt->BeginMaintenance(shards[1].proclet)).ok());
      auto* tail = env.rt->UnsafeGet<BlobVector::Shard>(shards[1].proclet);
      (void)tail->Seal();
      env.rt->EndMaintenance(shards[1].proclet);
    }
    const SimTime merge_start = env.sim.Now();
    QS_CHECK(env.sim.BlockOn(MergeShards(ctx, vec, shards[0], shards[1])).ok());
    const Duration merge_time = env.sim.Now() - merge_start;
    stop = true;
    env.sim.RunUntil(env.sim.Now() + Duration::Millis(1));

    std::printf("%12s %12s %12s %20s\n", FormatBytes(size).c_str(),
                split_time.ToString().c_str(), merge_time.ToString().c_str(),
                client_latency.Max().ToString().c_str());
    json.AddRow()
        .Str("scenario", "split_merge")
        .Int("shard_bytes", size)
        .Num("split_us", static_cast<double>(split_time.nanos()) / 1e3)
        .Num("merge_us", static_cast<double>(merge_time.nanos()) / 1e3)
        .Num("max_blocked_us",
             static_cast<double>(client_latency.Max().nanos()) / 1e3);
  }
  json.WriteFile("results/BENCH_ab3.json");
  std::printf("\nshape to check: cost scales with moved bytes (half the shard for\n"
              "splits, all of it for merges); at the 16 MiB granularity cap the\n"
              "disruption stays ~1ms — why Quicksand keeps proclets granular.\n");
}

}  // namespace
}  // namespace quicksand

int main(int argc, char** argv) {
  quicksand::BenchTrace trace = quicksand::BenchTrace::FromArgs(argc, argv);
  quicksand::g_trace = &trace;
  quicksand::Main();
  return 0;
}
