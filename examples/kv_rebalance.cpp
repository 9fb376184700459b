// A sharded key-value store that keeps itself fine-grained and balanced:
// inserts grow shards past the granularity cap, the adaptive controller
// splits them (§3.3), a memory antagonist then squeezes one machine and the
// local reactor migrates shards away; finally mass deletions leave shards
// underfull and the controller merges them back.
//
// Run: ./build/examples/kv_rebalance

#include <cstdio>

#include "quicksand/adapt/controller.h"
#include "quicksand/adapt/shard_maintenance.h"
#include "quicksand/cluster/antagonist.h"
#include "quicksand/common/bytes.h"
#include "quicksand/sched/local_reactor.h"

using namespace quicksand;  // NOLINT: example brevity

namespace {

using Store = ShardedMap<std::string, std::string>;

void PrintState(Runtime& rt, Store& store, Simulator& sim, const char* label) {
  std::printf("\n[%7.1fms] %s\n", sim.Now().seconds() * 1e3, label);
  sim.BlockOn(store.router().Refresh(rt.CtxOn(0)));
  for (const ShardInfo& info : store.router().cached_shards()) {
    auto* shard = rt.UnsafeGet<Store::Shard>(info.proclet);
    if (shard == nullptr) {
      continue;
    }
    std::printf("  shard %3llu on m%u: %5lld keys, %8s\n",
                static_cast<unsigned long long>(info.proclet),
                rt.LocationOf(info.proclet), static_cast<long long>(shard->count()),
                FormatBytes(shard->data_bytes()).c_str());
  }
  for (MachineId m = 0; m < rt.cluster().size(); ++m) {
    std::printf("  machine %u memory: %s / %s\n", m,
                FormatBytes(rt.cluster().machine(m).memory().used()).c_str(),
                FormatBytes(rt.cluster().machine(m).memory().capacity()).c_str());
  }
}

}  // namespace

int main() {
  Simulator sim;
  Cluster cluster(sim);
  for (int i = 0; i < 2; ++i) {
    MachineSpec spec;
    spec.cores = 4;
    spec.memory_bytes = 256 * kMiB;
    cluster.AddMachine(spec);
  }
  Runtime rt(sim, cluster);
  const Ctx ctx = rt.CtxOn(0);
  auto reactors = StartLocalReactors(rt);

  Store store = *sim.BlockOn(Store::Create(ctx));
  constexpr int64_t kMaxShardBytes = 2 * kMiB;
  AdaptiveController controller(rt, 0, Duration::Millis(2));
  controller.Register("kv", [store](Ctx c) mutable -> Task<> {
    auto maintain =
        MaintainShards(c, store, kMaxShardBytes, kMaxShardBytes / 8);
    co_await std::move(maintain);
  });
  controller.Start();

  // Phase 1: load 6 MiB of values -> the single shard splits repeatedly.
  for (int i = 0; i < 6000; ++i) {
    QS_CHECK(sim.BlockOn(store.Put(ctx, "user:" + std::to_string(i),
                                   std::string(1024, 'v')))
                 .ok());
  }
  sim.RunFor(Duration::Millis(20));  // let the controller catch up
  PrintState(rt, store, sim, "after loading 6000 x 1KiB (split phase)");

  // Phase 2: memory antagonist squeezes machine 0 past the reactor's
  // watermark -> shards migrate to m1.
  MemoryAntagonist antagonist(sim, cluster.machine(0), 248 * kMiB,
                              Duration::Millis(50), Duration::Millis(5));
  antagonist.Start();
  sim.RunFor(Duration::Millis(30));
  PrintState(rt, store, sim, "under memory pressure on machine 0");

  // Phase 3: delete 90% of keys -> merge phase shrinks the shard count.
  for (int i = 0; i < 6000; ++i) {
    if (i % 10 != 0) {
      QS_CHECK(sim.BlockOn(store.Erase(ctx, "user:" + std::to_string(i))).ok());
    }
  }
  sim.RunFor(Duration::Millis(40));
  PrintState(rt, store, sim, "after deleting 90% of keys (merge phase)");

  // The data is still all there.
  int64_t checked = 0;
  for (int i = 0; i < 6000; i += 10) {
    QS_CHECK(sim.BlockOn(store.Get(ctx, "user:" + std::to_string(i))).ok());
    ++checked;
  }
  std::printf("\nverified %lld surviving keys; migrations=%lld\n",
              static_cast<long long>(checked),
              static_cast<long long>(rt.stats().migrations));
  return 0;
}
