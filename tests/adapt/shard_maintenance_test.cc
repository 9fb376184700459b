#include "quicksand/adapt/shard_maintenance.h"

#include <gtest/gtest.h>

#include "quicksand/adapt/controller.h"
#include "quicksand/common/bytes.h"

namespace quicksand {
namespace {

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  explicit Fixture(int machines = 2) {
    for (int i = 0; i < machines; ++i) {
      MachineSpec spec;
      spec.cores = 4;
      spec.memory_bytes = 2_GiB;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
  }

  Ctx ctx() { return rt->CtxOn(0); }
};

using IntVector = ShardedVector<int64_t>;
using StrMap = ShardedMap<std::string, int64_t>;

TEST(VectorMaintenanceTest, SplitsOversizedShard) {
  Fixture f;
  IntVector::Options options;
  options.max_shard_bytes = 1_MiB;  // PushBack growth never triggers here
  IntVector vec = *f.sim.BlockOn(IntVector::Create(f.ctx(), options));
  for (int64_t i = 0; i < 100; ++i) {
    QS_CHECK(f.sim.BlockOn(vec.PushBack(f.ctx(), i)).ok());
  }
  f.sim.BlockOn(vec.router().Refresh(f.ctx()));
  ASSERT_EQ(vec.router().cached_shards().size(), 1u);

  // Maintain with a tiny max: the 800-byte shard must split.
  ShardMaintenanceStats stats;
  f.sim.BlockOn(MaintainShards(f.ctx(), vec, /*max=*/400, /*min=*/0, &stats));
  EXPECT_GE(stats.splits, 1);
  f.sim.BlockOn(vec.router().Refresh(f.ctx()));
  EXPECT_GE(vec.router().cached_shards().size(), 2u);

  // Every element still reachable, values intact.
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(*f.sim.BlockOn(vec.Get(f.ctx(), static_cast<uint64_t>(i))), i);
  }
}

TEST(VectorMaintenanceTest, RepeatedMaintenanceReachesTargetGranularity) {
  Fixture f;
  IntVector::Options options;
  options.max_shard_bytes = 1_MiB;
  IntVector vec = *f.sim.BlockOn(IntVector::Create(f.ctx(), options));
  for (int64_t i = 0; i < 256; ++i) {
    QS_CHECK(f.sim.BlockOn(vec.PushBack(f.ctx(), i)).ok());
  }
  for (int round = 0; round < 6; ++round) {
    f.sim.BlockOn(MaintainShards(f.ctx(), vec, /*max=*/256, /*min=*/0));
  }
  f.sim.BlockOn(vec.router().Refresh(f.ctx()));
  // 256 elements x 8B = 2048B; max 256B -> at least 8 shards.
  EXPECT_GE(vec.router().cached_shards().size(), 8u);
  // Data integrity sweep.
  Result<std::vector<int64_t>> all = f.sim.BlockOn(vec.GetRange(f.ctx(), 0, 256));
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 256u);
  for (int64_t i = 0; i < 256; ++i) {
    EXPECT_EQ((*all)[static_cast<size_t>(i)], i);
  }
}

TEST(VectorMaintenanceTest, MergesUndersizedNeighbors) {
  Fixture f;
  IntVector::Options options;
  options.max_shard_bytes = 128;  // 16 ints per shard -> many small shards
  IntVector vec = *f.sim.BlockOn(IntVector::Create(f.ctx(), options));
  for (int64_t i = 0; i < 100; ++i) {
    QS_CHECK(f.sim.BlockOn(vec.PushBack(f.ctx(), i)).ok());
  }
  f.sim.BlockOn(vec.router().Refresh(f.ctx()));
  const size_t before = vec.router().cached_shards().size();
  ASSERT_GE(before, 6u);

  // Merge pass with a large max and a min above every shard's size.
  ShardMaintenanceStats stats;
  for (int round = 0; round < 6; ++round) {
    f.sim.BlockOn(MaintainShards(f.ctx(), vec, /*max=*/100000,
                                        /*min=*/1000, &stats));
  }
  EXPECT_GE(stats.merges, 1);
  f.sim.BlockOn(vec.router().Refresh(f.ctx()));
  EXPECT_LT(vec.router().cached_shards().size(), before);
  for (int64_t i = 0; i < 100; i += 7) {
    EXPECT_EQ(*f.sim.BlockOn(vec.Get(f.ctx(), static_cast<uint64_t>(i))), i);
  }
}

TEST(VectorMaintenanceTest, SplitMovesMemoryToOtherMachine) {
  // Machine 0 nearly full: the split payload should land on machine 1.
  Fixture f;
  IntVector::Options options;
  options.max_shard_bytes = 10_MiB;
  IntVector vec = *f.sim.BlockOn(IntVector::Create(f.ctx(), options));
  for (int64_t i = 0; i < 200; ++i) {
    QS_CHECK(f.sim.BlockOn(vec.PushBack(f.ctx(), i)).ok());
  }
  // Force everything onto machine 0, then fill machine 0's memory.
  f.sim.BlockOn(vec.router().Refresh(f.ctx()));
  for (const ShardInfo& s : vec.router().cached_shards()) {
    QS_CHECK(f.sim.BlockOn(f.rt->Migrate(s.proclet, 0)).ok());
  }
  QS_CHECK(f.cluster.machine(0).memory().TryCharge(
      f.cluster.machine(0).memory().free() - 100_KiB));
  f.sim.BlockOn(MaintainShards(f.ctx(), vec, /*max=*/800, /*min=*/0));
  f.sim.BlockOn(vec.router().Refresh(f.ctx()));
  bool any_on_m1 = false;
  for (const ShardInfo& s : vec.router().cached_shards()) {
    if (f.rt->LocationOf(s.proclet) == 1) {
      any_on_m1 = true;
    }
  }
  EXPECT_TRUE(any_on_m1);
}

TEST(MapMaintenanceTest, SplitsAtMedianProjection) {
  Fixture f;
  StrMap map = *f.sim.BlockOn(StrMap::Create(f.ctx()));
  for (int i = 0; i < 200; ++i) {
    QS_CHECK(f.sim.BlockOn(map.Put(f.ctx(), "key" + std::to_string(i), i)).ok());
  }
  ShardMaintenanceStats stats;
  for (int round = 0; round < 4; ++round) {
    f.sim.BlockOn(MaintainShards(f.ctx(), map, /*max=*/2000, /*min=*/0, &stats));
  }
  EXPECT_GE(stats.splits, 2);
  f.sim.BlockOn(map.router().Refresh(f.ctx()));
  EXPECT_GE(map.router().cached_shards().size(), 3u);
  // All keys still resolve.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(*f.sim.BlockOn(map.Get(f.ctx(), "key" + std::to_string(i))), i);
  }
  EXPECT_EQ(*f.sim.BlockOn(map.Size(f.ctx())), 200);
}

TEST(MapMaintenanceTest, MergeAfterMassErase) {
  // The paper's shrink scenario: deletions leave shards underfull; merging
  // restores memory efficiency.
  Fixture f;
  StrMap map = *f.sim.BlockOn(StrMap::Create(f.ctx()));
  for (int i = 0; i < 300; ++i) {
    QS_CHECK(f.sim.BlockOn(map.Put(f.ctx(), "key" + std::to_string(i), i)).ok());
  }
  for (int round = 0; round < 5; ++round) {
    f.sim.BlockOn(MaintainShards(f.ctx(), map, /*max=*/1500, /*min=*/0));
  }
  f.sim.BlockOn(map.router().Refresh(f.ctx()));
  const size_t split_count = map.router().cached_shards().size();
  ASSERT_GE(split_count, 3u);

  for (int i = 0; i < 300; ++i) {
    if (i % 10 != 0) {
      QS_CHECK(f.sim.BlockOn(map.Erase(f.ctx(), "key" + std::to_string(i))).ok());
    }
  }
  ShardMaintenanceStats stats;
  for (int round = 0; round < 6; ++round) {
    f.sim.BlockOn(MaintainShards(f.ctx(), map, /*max=*/1500, /*min=*/700, &stats));
  }
  EXPECT_GE(stats.merges, 1);
  f.sim.BlockOn(map.router().Refresh(f.ctx()));
  EXPECT_LT(map.router().cached_shards().size(), split_count);
  for (int i = 0; i < 300; i += 10) {
    EXPECT_EQ(*f.sim.BlockOn(map.Get(f.ctx(), "key" + std::to_string(i))), i);
  }
}

TEST(MapMaintenanceTest, MaintenanceUnderMemoryPressureNeverLosesData) {
  // Regression: a split/merge whose destination charge fails used to destroy
  // the extracted payload — silent data loss. Run aggressive maintenance on
  // a nearly-full cluster and verify every key survives.
  Fixture f;
  StrMap map = *f.sim.BlockOn(StrMap::Create(f.ctx()));
  for (int i = 0; i < 400; ++i) {
    QS_CHECK(f.sim.BlockOn(map.Put(f.ctx(), "key" + std::to_string(i), i)).ok());
  }
  // Fill both machines to ~99.9%.
  for (MachineId m = 0; m < f.cluster.size(); ++m) {
    MemoryAccount& mem = f.cluster.machine(m).memory();
    QS_CHECK(mem.TryCharge(mem.free() - 20_KiB));
  }
  for (int round = 0; round < 8; ++round) {
    // Alternate split-pressure and merge-pressure configurations.
    f.sim.BlockOn(MaintainShards(f.ctx(), map, /*max=*/1000, /*min=*/0));
    f.sim.BlockOn(MaintainShards(f.ctx(), map, /*max=*/100000, /*min=*/5000));
  }
  f.sim.RunUntilIdle();
  EXPECT_EQ(*f.sim.BlockOn(map.Size(f.ctx())), 400);
  for (int i = 0; i < 400; ++i) {
    Result<int64_t> v = f.sim.BlockOn(map.Get(f.ctx(), "key" + std::to_string(i)));
    ASSERT_TRUE(v.ok()) << "key" << i << " lost: " << v.status().ToString();
    EXPECT_EQ(*v, i);
  }
}

TEST(MaintenanceTest, SplitBlocksCallsOnlyBriefly) {
  Fixture f;
  IntVector::Options options;
  options.max_shard_bytes = 1_MiB;
  IntVector vec = *f.sim.BlockOn(IntVector::Create(f.ctx(), options));
  for (int64_t i = 0; i < 1000; ++i) {
    QS_CHECK(f.sim.BlockOn(vec.PushBack(f.ctx(), i)).ok());
  }
  f.sim.BlockOn(vec.router().Refresh(f.ctx()));
  const ShardInfo donor = vec.router().cached_shards()[0];
  const SimTime start = f.sim.Now();
  Status s = f.sim.BlockOn(SplitShard(f.ctx(), vec, donor));
  EXPECT_TRUE(s.ok());
  // 8KB of moved data: the disruption window is tens of microseconds.
  EXPECT_LT(f.sim.Now() - start, 1_ms);
}

TEST(AdaptiveControllerTest, PeriodicMaintenanceKeepsShardsBounded) {
  Fixture f;
  IntVector::Options options;
  options.max_shard_bytes = 100_MiB;  // growth never splits on its own
  IntVector vec = *f.sim.BlockOn(IntVector::Create(f.ctx(), options));

  AdaptiveController controller(*f.rt, 0, 1_ms);
  controller.Register("vector", [vec](Ctx ctx) mutable -> Task<> {
    auto maintain = MaintainShards(ctx, vec, /*max=*/512, /*min=*/64);
    co_await std::move(maintain);
  });
  controller.Start();

  // Keep inserting while the controller runs.
  Fiber loader = f.sim.Spawn(
      [](Fixture* fx, IntVector v) -> Task<> {
        for (int64_t i = 0; i < 600; ++i) {
          auto push = v.PushBack(fx->ctx(), i);
          const Result<uint64_t> pushed = co_await std::move(push);
          QS_CHECK(pushed.ok());
          co_await fx->sim.Sleep(50_us);
        }
      }(&f, vec),
      "loader");
  f.sim.RunUntil(f.sim.Now() + 50_ms);
  EXPECT_TRUE(loader.done());
  EXPECT_GT(controller.rounds(), 10);

  f.sim.BlockOn(vec.router().Refresh(f.ctx()));
  using Shard = IntVector::Shard;
  for (const ShardInfo& s : vec.router().cached_shards()) {
    auto* shard = f.rt->UnsafeGet<Shard>(s.proclet);
    ASSERT_NE(shard, nullptr);
    EXPECT_LE(shard->data_bytes(), 512 + 256);  // max plus one in-flight chunk
  }
  // Integrity.
  for (int64_t i = 0; i < 600; i += 37) {
    EXPECT_EQ(*f.sim.BlockOn(vec.Get(f.ctx(), static_cast<uint64_t>(i))), i);
  }
}

}  // namespace
}  // namespace quicksand
