// The layer ladder: host nanoseconds per operation of each layer's public
// entry point, each called many times in a tiny isolated setup. A rung's
// cost minus the rung below it is what that layer adds:
//
//   event -> fiber -> channel -> cpu_slice -> fabric -> rpc -> invoke
//         -> ds_push -> frontend
//
// Coroutine loops use the named-local form (`auto v = co_await ...;`) and
// never co_await inside a loop condition, which GCC 12 miscompiles.

#include <functional>
#include <optional>

#include "quicksand/common/bytes.h"
#include "quicksand/ds/sharded_vector.h"
#include "quicksand/net/rpc.h"
#include "quicksand/proclet/memory_proclet.h"
#include "quicksand/serving/kv_frontend.h"
#include "quicksand/sim/channel.h"
#include "workloads.h"

namespace perfbench {

using namespace quicksand;  // NOLINT: the ladder is library calls throughout

namespace {

constexpr int kBatches = 5;

// Runs `batch` (which performs `ops` operations) kBatches times and returns
// the median host ns per operation.
double NsPerOp(HostSpans* spans, const std::string& rung, int64_t ops,
               const std::function<void()>& batch) {
  std::vector<double> per_op;
  for (int i = 0; i < kBatches; ++i) {
    PhaseTimer timer(spans, "ladder." + rung);
    batch();
    per_op.push_back(timer.Stop() / static_cast<double>(ops) * 1e9);
  }
  return Median(per_op);
}

// Builds `machines` 2-core machines into `cluster`.
Cluster& SmallCluster(Simulator& sim, std::optional<Cluster>& cluster, int machines) {
  cluster.emplace(sim);
  for (int i = 0; i < machines; ++i) {
    MachineSpec spec;
    spec.cores = 2;
    spec.memory_bytes = 2 * kGiB;
    cluster->AddMachine(spec);
  }
  return *cluster;
}

Task<> Yielder(Simulator& sim, int yields) {
  for (int i = 0; i < yields; ++i) {
    co_await sim.Yield();
  }
}

Task<> Producer(Channel<int>& ch, int items) {
  for (int i = 0; i < items; ++i) {
    auto send = ch.Send(i);
    co_await std::move(send);
  }
  ch.Close();
}

Task<> Consumer(Channel<int>& ch, int64_t& received) {
  for (;;) {
    auto item = co_await ch.Recv();
    if (!item.has_value()) {
      break;
    }
    ++received;
  }
}

Task<> Transfers(Fabric& fabric, int n) {
  for (int i = 0; i < n; ++i) {
    auto transfer = fabric.Transfer(0, 1, 128);
    co_await std::move(transfer);
  }
}

Task<> RoundTrips(Rpc& rpc, int n) {
  for (int i = 0; i < n; ++i) {
    auto call = rpc.RoundTrip(0, 1, 128, []() -> Task<int64_t> { co_return 128; });
    (void)co_await std::move(call);
  }
}

Task<> Calls(Ctx ctx, Ref<MemoryProclet> proclet, int n) {
  for (int i = 0; i < n; ++i) {
    auto call = proclet.Call(ctx, [](MemoryProclet& p) -> Task<int64_t> {
      co_return static_cast<int64_t>(p.object_count());
    });
    (void)co_await std::move(call);
  }
}

Task<> Pushes(Ctx ctx, ShardedVector<int64_t> vec, int n) {
  for (int i = 0; i < n; ++i) {
    auto push = vec.PushBack(ctx, i);
    (void)co_await std::move(push);
  }
}

Task<> Serves(KvFrontend& frontend, int n) {
  for (int i = 0; i < n; ++i) {
    auto serve = frontend.ServeDetailed(static_cast<uint64_t>(i % 512), i % 10 != 0);
    (void)co_await std::move(serve);
  }
}

}  // namespace

Metrics RunLadder(HostSpans* spans) {
  Metrics out;
  const auto rung = [&out, spans](const std::string& name, int64_t ops,
                                  const std::function<void()>& batch) {
    out.Set("ladder." + name + ".ns_per_op", NsPerOp(spans, name, ops, batch), "ns");
  };

  // 64 timer chains, each event scheduling the chain's next one.
  rung("event", 100000, [] {
    Simulator sim;
    int64_t left = 100000;
    struct Chain {
      Simulator* sim;
      int64_t* left;
      void operator()() const {
        if (--*left > 0) {
          sim->Schedule(Duration::Micros(1), *this);
        }
      }
    };
    for (int i = 0; i < 64; ++i) {
      sim.Schedule(Duration::Micros(1), Chain{&sim, &left});
    }
    sim.RunUntilIdle();
  });

  rung("fiber", 100000, [] {
    Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.Spawn(Yielder(sim, 100));
    }
    sim.RunUntilIdle();
  });

  rung("channel", 100000, [] {
    Simulator sim;
    Channel<int> ch(sim, 64);
    int64_t received = 0;
    sim.Spawn(Producer(ch, 100000));
    sim.Spawn(Consumer(ch, received));
    sim.RunUntilIdle();
  });

  // 64 requests x 2 ms of work in 20 us quanta on 4 cores.
  rung("cpu_slice", 64 * 100, [] {
    Simulator sim;
    CpuScheduler cpu(sim, 4, Duration::Micros(20));
    for (int i = 0; i < 64; ++i) {
      sim.Spawn(cpu.Run(Duration::Millis(2)));
    }
    sim.RunUntilIdle();
  });

  rung("fabric", 20000, [] {
    Simulator sim;
    std::optional<Cluster> cluster;
    SmallCluster(sim, cluster, 2);
    sim.BlockOn(Transfers(cluster->fabric(), 20000));
  });

  rung("rpc", 20000, [] {
    Simulator sim;
    std::optional<Cluster> cluster;
    SmallCluster(sim, cluster, 2);
    Rpc rpc(sim, cluster->fabric());
    sim.BlockOn(RoundTrips(rpc, 20000));
  });

  rung("invoke", 20000, [] {
    Simulator sim;
    std::optional<Cluster> cluster;
    Runtime rt(sim, SmallCluster(sim, cluster, 2));
    PlacementRequest req;
    req.heap_bytes = 4096;
    req.pinned = MachineId{1};
    auto create = rt.Create<MemoryProclet>(rt.CtxOn(0), req);
    Ref<MemoryProclet> proclet = *sim.BlockOn(std::move(create));
    sim.BlockOn(Calls(rt.CtxOn(0), proclet, 20000));
  });

  rung("ds_push", 20000, [] {
    Simulator sim;
    std::optional<Cluster> cluster;
    Runtime rt(sim, SmallCluster(sim, cluster, 2));
    auto vec = *sim.BlockOn(ShardedVector<int64_t>::Create(rt.CtxOn(0)));
    sim.BlockOn(Pushes(rt.CtxOn(0), vec, 20000));
  });

  rung("frontend", 20000, [] {
    Simulator sim;
    std::optional<Cluster> cluster;
    Runtime rt(sim, SmallCluster(sim, cluster, 3));
    KvFrontendOptions fopt;
    fopt.shards = 2;
    KvFrontend frontend(rt, fopt);
    (void)sim.BlockOn(frontend.Start(rt.CtxOn(0)));
    sim.BlockOn(Serves(frontend, 20000));
  });
  return out;
}

}  // namespace perfbench
