#include "quicksand/sharding/shard_index.h"

#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "quicksand/common/bytes.h"

namespace quicksand {
namespace {

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  Fixture() {
    cluster.AddMachine(MachineSpec{});
    cluster.AddMachine(MachineSpec{});
    rt = std::make_unique<Runtime>(sim, cluster);
  }

  Ref<ShardIndexProclet> MakeIndex() {
    PlacementRequest req;
    req.heap_bytes = 4096;
    return *sim.BlockOn(rt->Create<ShardIndexProclet>(rt->CtxOn(0), req));
  }

  ShardIndexProclet* Get(Ref<ShardIndexProclet> ref) {
    return rt->UnsafeGet<ShardIndexProclet>(ref.id());
  }
};

ShardInfo Info(ProcletId id, uint64_t begin, uint64_t end) {
  ShardInfo info;
  info.proclet = id;
  info.begin = begin;
  info.end = end;
  return info;
}

TEST(ShardIndexTest, AddAndLookup) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());
  EXPECT_TRUE(index->AddShard(Info(11, 100, 200)).ok());
  EXPECT_EQ(index->LookupKey(0)->proclet, 10u);
  EXPECT_EQ(index->LookupKey(99)->proclet, 10u);
  EXPECT_EQ(index->LookupKey(100)->proclet, 11u);
  EXPECT_EQ(index->LookupKey(199)->proclet, 11u);
  EXPECT_EQ(index->LookupKey(200).status().code(), StatusCode::kNotFound);
}

TEST(ShardIndexTest, RejectsOverlaps) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  EXPECT_TRUE(index->AddShard(Info(10, 100, 200)).ok());
  EXPECT_EQ(index->AddShard(Info(11, 150, 250)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(index->AddShard(Info(11, 50, 101)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(index->AddShard(Info(11, 100, 200)).code(),
            StatusCode::kFailedPrecondition);
  // Exactly adjacent is fine.
  EXPECT_TRUE(index->AddShard(Info(11, 200, 300)).ok());
  EXPECT_TRUE(index->AddShard(Info(12, 50, 100)).ok());
  // An update may not widen a range into its right neighbor either.
  EXPECT_EQ(index->UpdateShard(Info(10, 100, 201)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(index->UpdateShard(Info(12, 50, 150)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(index->LookupKey(100)->proclet, 10u);
  EXPECT_EQ(index->LookupKey(200)->proclet, 11u);
  EXPECT_TRUE(index->UpdateShard(Info(10, 100, 200)).ok());
  EXPECT_TRUE(index->UpdateShard(Info(11, 200, 400)).ok());  // no right neighbor
}

TEST(ShardIndexTest, RejectsEmptyRange) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  EXPECT_EQ(index->AddShard(Info(10, 5, 5)).code(), StatusCode::kInvalidArgument);
}

TEST(ShardIndexTest, GapsAreNotFound) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());
  EXPECT_TRUE(index->AddShard(Info(11, 200, 300)).ok());
  EXPECT_EQ(index->LookupKey(150).status().code(), StatusCode::kNotFound);
}

TEST(ShardIndexTest, RemoveShard) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());
  EXPECT_TRUE(index->RemoveShard(10).ok());
  EXPECT_EQ(index->LookupKey(50).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(index->RemoveShard(10).code(), StatusCode::kNotFound);
}

TEST(ShardIndexTest, UpdateShardShrinksRange) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  EXPECT_TRUE(index->AddShard(Info(10, 0, UINT64_MAX)).ok());
  EXPECT_TRUE(index->UpdateShard(Info(10, 0, 64)).ok());
  EXPECT_EQ(index->LookupKey(63)->proclet, 10u);
  EXPECT_EQ(index->LookupKey(64).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(index->AddShard(Info(11, 64, UINT64_MAX)).ok());
}

TEST(ShardIndexTest, UpdateRejectsWrongProclet) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());
  EXPECT_EQ(index->UpdateShard(Info(99, 0, 50)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardIndexTest, VersionBumpsOnMutation) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  const uint64_t v0 = index->version();
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());
  EXPECT_GT(index->version(), v0);
  const uint64_t v1 = index->version();
  EXPECT_TRUE(index->UpdateShard(Info(10, 0, 50)).ok());
  EXPECT_GT(index->version(), v1);
}

TEST(ShardIndexTest, NextNeighbor) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());
  EXPECT_TRUE(index->AddShard(Info(11, 100, 200)).ok());
  EXPECT_EQ(index->NextNeighbor(10)->proclet, 11u);
  EXPECT_EQ(index->NextNeighbor(11).status().code(), StatusCode::kNotFound);
}

TEST(ShardRouterTest, CachesAndRefreshes) {
  Fixture f;
  Ref<ShardIndexProclet> ref = f.MakeIndex();
  auto* index = f.Get(ref);
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());

  ShardRouter router(ref);
  const Ctx ctx = f.rt->CtxOn(0);
  Result<ShardInfo> hit = f.sim.BlockOn(router.Route(ctx, 50));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->proclet, 10u);

  // Mutate behind the router's back; the cache still answers for old keys,
  // and a missing key triggers a refresh that picks up the change.
  EXPECT_TRUE(index->AddShard(Info(11, 100, 200)).ok());
  Result<ShardInfo> miss = f.sim.BlockOn(router.Route(ctx, 150));
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->proclet, 11u);
}

TEST(ShardRouterTest, InvalidateForcesRefetch) {
  Fixture f;
  Ref<ShardIndexProclet> ref = f.MakeIndex();
  auto* index = f.Get(ref);
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());
  ShardRouter router(ref);
  const Ctx ctx = f.rt->CtxOn(0);
  ASSERT_TRUE(f.sim.BlockOn(router.Route(ctx, 50)).ok());
  EXPECT_TRUE(index->RemoveShard(10).ok());
  EXPECT_TRUE(index->AddShard(Info(20, 0, 100)).ok());
  router.Invalidate();
  EXPECT_EQ(f.sim.BlockOn(router.Route(ctx, 50))->proclet, 20u);
}

// The linear scans the router's binary search and last-entry tail stand in
// for, kept as the reference.
ProcletId ScanFor(const std::vector<ShardInfo>& shards, uint64_t key) {
  for (const ShardInfo& shard : shards) {
    if (key >= shard.begin && key < shard.end) {
      return shard.proclet;
    }
  }
  return kInvalidProcletId;
}

ProcletId ScanForTail(const std::vector<ShardInfo>& shards) {
  for (const ShardInfo& shard : shards) {
    if (shard.end == UINT64_MAX) {
      return shard.proclet;
    }
  }
  return kInvalidProcletId;
}

ProcletId ProcletOf(const Result<ShardInfo>& found) {
  return found.ok() ? found->proclet : kInvalidProcletId;
}

TEST(ShardRouterTest, LookupAndTailAgreeWithALinearScan) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 40; ++round) {
    Fixture f;
    Ref<ShardIndexProclet> ref = f.MakeIndex();
    auto* index = f.Get(ref);
    // Sorted, disjoint ranges with gaps (some empty), the last one running
    // to UINT64_MAX in every other round; added in shuffled order.
    const bool with_tail = round % 2 == 0;
    const int count = static_cast<int>(rng() % 12);
    std::vector<ShardInfo> ranges;
    uint64_t at = rng() % 4;
    for (int i = 0; i < count; ++i) {
      const uint64_t end = at + 1 + rng() % 40;
      ranges.push_back(Info(100 + static_cast<ProcletId>(i), at, end));
      at = end + (rng() % 2 == 0 ? 0 : rng() % 20);
    }
    if (with_tail && !ranges.empty()) {
      ranges.back().end = UINT64_MAX;
    }
    std::vector<ShardInfo> shuffled = ranges;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    for (const ShardInfo& info : shuffled) {
      ASSERT_TRUE(index->AddShard(info).ok());
    }

    ShardRouter router(ref);
    EXPECT_EQ(ProcletOf(router.LookupCached(0)), kInvalidProcletId);
    EXPECT_EQ(ProcletOf(router.CachedTail()), kInvalidProcletId);
    f.sim.BlockOn(router.Refresh(f.rt->CtxOn(0)));
    const std::vector<ShardInfo>& shards = router.cached_shards();
    ASSERT_EQ(shards.size(), ranges.size());
    EXPECT_EQ(ProcletOf(router.CachedTail()), ScanForTail(shards));

    std::vector<uint64_t> keys = {0, UINT64_MAX - 1, UINT64_MAX, at + 5};
    for (const ShardInfo& shard : shards) {
      keys.insert(keys.end(), {shard.begin, shard.begin - 1, shard.end, shard.end - 1});
    }
    for (int i = 0; i < 64; ++i) {
      keys.push_back(rng() % (at + 8));
    }
    for (uint64_t key : keys) {
      EXPECT_EQ(ProcletOf(router.LookupCached(key)), ScanFor(shards, key))
          << "round " << round << " key " << key;
    }
  }
}

TEST(ShardRouterTest, ACopyKeepsItsSnapshot) {
  Fixture f;
  Ref<ShardIndexProclet> ref = f.MakeIndex();
  auto* index = f.Get(ref);
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());
  const Ctx ctx = f.rt->CtxOn(0);
  ShardRouter router(ref);
  f.sim.BlockOn(router.Refresh(ctx));
  const ShardRouter copy = router;
  EXPECT_EQ(copy.snapshot(), router.snapshot());  // shared, not copied

  EXPECT_TRUE(index->AddShard(Info(11, 100, 200)).ok());
  f.sim.BlockOn(router.Refresh(ctx));
  EXPECT_NE(copy.snapshot(), router.snapshot());
  EXPECT_EQ(router.cached_shards().size(), 2u);
  EXPECT_EQ(copy.cached_shards().size(), 1u);
  EXPECT_EQ(ProcletOf(router.LookupCached(150)), 11u);
  EXPECT_EQ(ProcletOf(copy.LookupCached(150)), kInvalidProcletId);
  EXPECT_LT(copy.cached_version(), router.cached_version());

  const uint64_t copy_version = copy.cached_version();
  router.Invalidate();
  EXPECT_EQ(router.snapshot(), nullptr);
  EXPECT_TRUE(router.cached_shards().empty());
  EXPECT_EQ(copy.cached_version(), copy_version);
  EXPECT_EQ(ProcletOf(copy.LookupCached(50)), 10u);
}

}  // namespace
}  // namespace quicksand
