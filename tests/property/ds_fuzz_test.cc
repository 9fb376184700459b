// Property fuzz: sharded data structures behave like their in-memory
// references under randomized operation streams interleaved with
// migrations and split/merge maintenance.

#include <deque>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "quicksand/adapt/shard_maintenance.h"
#include "quicksand/common/bytes.h"
#include "quicksand/common/random.h"
#include "quicksand/ds/sharded_queue.h"

namespace quicksand {
namespace {

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  explicit Fixture(int machines = 3) {
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

class VectorFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VectorFuzzTest, MatchesReferenceVector) {
  Fixture f;
  Rng rng(GetParam());
  ShardedVector<int64_t>::Options options;
  options.max_shard_bytes = 256;  // aggressive sharding
  auto vec = *f.sim.BlockOn(ShardedVector<int64_t>::Create(f.ctx(), options));
  std::vector<int64_t> reference;

  for (int step = 0; step < 400; ++step) {
    const uint64_t op = rng.NextBounded(100);
    if (op < 45) {  // push
      const int64_t value = static_cast<int64_t>(rng.Next() % 1000000);
      Result<uint64_t> idx = f.sim.BlockOn(vec.PushBack(f.ctx(), value));
      ASSERT_TRUE(idx.ok());
      ASSERT_EQ(*idx, reference.size());
      reference.push_back(value);
    } else if (op < 65 && !reference.empty()) {  // get
      const uint64_t i = rng.NextBounded(reference.size());
      Result<int64_t> v = f.sim.BlockOn(vec.Get(f.ctx(), i));
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(*v, reference[i]);
    } else if (op < 80 && !reference.empty()) {  // set
      const uint64_t i = rng.NextBounded(reference.size());
      const int64_t value = static_cast<int64_t>(rng.Next() % 1000000);
      ASSERT_TRUE(f.sim.BlockOn(vec.Set(f.ctx(), i, value)).ok());
      reference[i] = value;
    } else if (op < 90) {  // migrate a random shard
      f.sim.BlockOn(vec.router().Refresh(f.ctx()));
      const auto& shards = vec.router().cached_shards();
      if (!shards.empty()) {
        const auto& s = shards[rng.NextBounded(shards.size())];
        const MachineId target = static_cast<MachineId>(rng.NextBounded(3));
        (void)f.sim.BlockOn(f.rt->Migrate(s.proclet, target));
      }
    } else {  // maintenance (splits under the aggressive max, occasional merges)
      f.sim.BlockOn(MaintainShards(f.ctx(), vec, /*max=*/256, /*min=*/64));
    }
  }

  // Full-content comparison at the end.
  Result<uint64_t> size = f.sim.BlockOn(vec.Size(f.ctx()));
  ASSERT_TRUE(size.ok());
  ASSERT_EQ(*size, reference.size());
  Result<std::vector<int64_t>> all =
      f.sim.BlockOn(vec.GetRange(f.ctx(), 0, reference.size()));
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ((*all)[i], reference[i]) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorFuzzTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

class MapFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MapFuzzTest, MatchesReferenceMap) {
  Fixture f;
  Rng rng(GetParam());
  auto map = *f.sim.BlockOn(ShardedMap<int64_t, int64_t>::Create(f.ctx()));
  std::map<int64_t, int64_t> reference;

  for (int step = 0; step < 400; ++step) {
    const uint64_t op = rng.NextBounded(100);
    const int64_t key = static_cast<int64_t>(rng.NextBounded(200));  // collisions
    if (op < 40) {  // put
      const int64_t value = static_cast<int64_t>(rng.Next() % 1000000);
      ASSERT_TRUE(f.sim.BlockOn(map.Put(f.ctx(), key, value)).ok());
      reference[key] = value;
    } else if (op < 60) {  // get
      Result<int64_t> v = f.sim.BlockOn(map.Get(f.ctx(), key));
      auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
      } else {
        ASSERT_TRUE(v.ok());
        EXPECT_EQ(*v, it->second);
      }
    } else if (op < 75) {  // erase
      const Status s = f.sim.BlockOn(map.Erase(f.ctx(), key));
      if (reference.erase(key) > 0) {
        EXPECT_TRUE(s.ok());
      } else {
        EXPECT_EQ(s.code(), StatusCode::kNotFound);
      }
    } else if (op < 88) {  // migrate a shard
      f.sim.BlockOn(map.router().Refresh(f.ctx()));
      const auto& shards = map.router().cached_shards();
      if (!shards.empty()) {
        const auto& s = shards[rng.NextBounded(shards.size())];
        (void)f.sim.BlockOn(
            f.rt->Migrate(s.proclet, static_cast<MachineId>(rng.NextBounded(3))));
      }
    } else {  // maintenance with tight shard budget
      f.sim.BlockOn(MaintainShards(f.ctx(), map, /*max=*/600, /*min=*/100));
    }
  }

  Result<int64_t> size = f.sim.BlockOn(map.Size(f.ctx()));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, static_cast<int64_t>(reference.size()));
  Result<std::vector<std::pair<int64_t, int64_t>>> items =
      f.sim.BlockOn(map.Items(f.ctx()));
  ASSERT_TRUE(items.ok());
  std::map<int64_t, int64_t> scanned(items->begin(), items->end());
  EXPECT_EQ(scanned, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapFuzzTest,
                         ::testing::Values(111, 222, 333, 444, 555, 666));

class QueueFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueueFuzzTest, FifoAndConservationUnderMigration) {
  Fixture f;
  Rng rng(GetParam());
  ShardedQueue<int64_t>::Options options;
  options.max_segment_bytes = 256;
  auto queue = *f.sim.BlockOn(ShardedQueue<int64_t>::Create(f.ctx(), options));
  std::deque<int64_t> reference;
  int64_t next_value = 0;

  for (int step = 0; step < 500; ++step) {
    const uint64_t op = rng.NextBounded(100);
    if (op < 50) {  // push
      ASSERT_TRUE(f.sim.BlockOn(queue.Push(f.ctx(), next_value)).ok());
      reference.push_back(next_value);
      ++next_value;
    } else if (op < 85) {  // pop batch
      const int64_t ask = static_cast<int64_t>(1 + rng.NextBounded(8));
      Result<std::vector<int64_t>> batch =
          f.sim.BlockOn(queue.TryPopBatch(f.ctx(), ask));
      ASSERT_TRUE(batch.ok());
      for (int64_t v : *batch) {
        ASSERT_FALSE(reference.empty());
        EXPECT_EQ(v, reference.front());
        reference.pop_front();
      }
    } else {  // migrate a segment
      f.sim.BlockOn(queue.router().Refresh(f.ctx()));
      const auto& shards = queue.router().cached_shards();
      if (!shards.empty()) {
        const auto& s = shards[rng.NextBounded(shards.size())];
        (void)f.sim.BlockOn(
            f.rt->Migrate(s.proclet, static_cast<MachineId>(rng.NextBounded(3))));
      }
    }
  }

  // Drain fully: the remaining order must match.
  for (;;) {
    Result<std::optional<int64_t>> v = f.sim.BlockOn(queue.TryPop(f.ctx()));
    ASSERT_TRUE(v.ok());
    if (!v->has_value()) {
      break;
    }
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(**v, reference.front());
    reference.pop_front();
  }
  EXPECT_TRUE(reference.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueFuzzTest,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005, 6006));

}  // namespace
}  // namespace quicksand
