// A5: simulator microbenchmarks (google-benchmark): how fast is the
// substrate itself? These bound how large a cluster/duration the figure
// benches can simulate.

#include <benchmark/benchmark.h>

#include "quicksand/common/bytes.h"
#include "quicksand/net/rpc.h"
#include "quicksand/proclet/memory_proclet.h"
#include "quicksand/sim/channel.h"
#include "quicksand/sim/simulator.h"

namespace quicksand {
namespace {

void BM_EventScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int64_t fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(Duration::Micros(i), [&fired] { ++fired; });
    }
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventScheduleAndRun);

Task<> PingPong(Simulator& sim, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await sim.Sleep(Duration::Micros(1));
  }
}

void BM_CoroutineSleepLoop(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    sim.Spawn(PingPong(sim, 1000), "pingpong");
    sim.RunUntilIdle();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineSleepLoop);

Task<> Producer1k(Channel<int>& ch) {
  for (int i = 0; i < 1000; ++i) {
    co_await ch.Send(i);
  }
  ch.Close();
}

Task<> Consumer1k(Channel<int>& ch) {
  // Named local, never `while ((co_await ch.Recv()).has_value())`: GCC 12
  // miscompiles co_await in a loop condition (scripts/check.sh lints it).
  for (;;) {
    auto v = co_await ch.Recv();
    if (!v.has_value()) {
      break;
    }
  }
}

void BM_ChannelThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Channel<int> ch(sim, 64);
    sim.Spawn(Producer1k(ch), "p");
    sim.Spawn(Consumer1k(ch), "c");
    sim.RunUntilIdle();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ChannelThroughput);

void BM_CpuSchedulerSlices(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    CpuScheduler cpu(sim, 8, Duration::Micros(20));
    for (int i = 0; i < 32; ++i) {
      sim.Spawn(cpu.Run(Duration::Millis(1)), "burn");
    }
    sim.RunUntilIdle();
  }
  // 32 requests x 50 slices each.
  state.SetItemsProcessed(state.iterations() * 1600);
}
BENCHMARK(BM_CpuSchedulerSlices);

void BM_RemoteInvocation(benchmark::State& state) {
  Simulator sim;
  Cluster cluster(sim);
  MachineSpec spec;
  spec.memory_bytes = 2 * kGiB;
  cluster.AddMachine(spec);
  cluster.AddMachine(spec);
  Runtime rt(sim, cluster);
  const Ctx ctx = rt.CtxOn(0);
  PlacementRequest req;
  req.heap_bytes = 4096;
  req.pinned = MachineId{1};
  auto create = rt.Create<MemoryProclet>(ctx, req);
  Ref<MemoryProclet> proclet = *sim.BlockOn(std::move(create));
  for (auto _ : state) {
    auto call = proclet.Call(ctx, [](MemoryProclet& p) -> Task<int64_t> {
      co_return static_cast<int64_t>(p.object_count());
    });
    benchmark::DoNotOptimize(sim.BlockOn(std::move(call)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RemoteInvocation);

void BM_ProcletMigration(benchmark::State& state) {
  Simulator sim;
  Cluster cluster(sim);
  MachineSpec spec;
  spec.memory_bytes = 8 * kGiB;
  cluster.AddMachine(spec);
  cluster.AddMachine(spec);
  Runtime rt(sim, cluster);
  const Ctx ctx = rt.CtxOn(0);
  PlacementRequest req;
  req.heap_bytes = state.range(0);
  req.pinned = MachineId{0};
  auto create = rt.Create<MemoryProclet>(ctx, req);
  Ref<MemoryProclet> proclet = *sim.BlockOn(std::move(create));
  MachineId target = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.BlockOn(rt.Migrate(proclet.id(), target)));
    target = 1 - target;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProcletMigration)->Arg(64 * kKiB)->Arg(10 * kMiB);

}  // namespace
}  // namespace quicksand

BENCHMARK_MAIN();
