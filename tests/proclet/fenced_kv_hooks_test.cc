// FencedKvProclet's split/merge hooks carry the dedup state with the data:
// after ExtractUpperRange both halves dedup every rid the donor applied,
// after AbsorbRightNeighbor the survivor dedups the union of both shards'
// rids, and a late rid that was never applied still executes on either
// side. data_bytes() prices entries at 64 B and remembered rids at 16 B at
// every step, since every reshape copy and stall estimate is priced by it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "quicksand/common/bytes.h"
#include "quicksand/common/random.h"
#include "quicksand/proclet/fenced_kv_proclet.h"

namespace quicksand {
namespace {

constexpr uint64_t kKeys = 256;

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  Fixture() {
    for (int i = 0; i < 3; ++i) {
      MachineSpec spec;
      spec.cores = 2;
      spec.memory_bytes = 1_GiB;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
  }

  FencedKvProclet* MakeShard(MachineId where, uint64_t begin, uint64_t end) {
    PlacementRequest req;
    req.heap_bytes = 1_MiB;
    req.pinned = where;
    Result<Ref<FencedKvProclet>> created = sim.BlockOn(
        rt->Create<FencedKvProclet>(rt->CtxOn(0), req, begin, end));
    QS_CHECK(created.ok());
    return rt->UnsafeGet<FencedKvProclet>(created->id());
  }
};

void ExpectPriced(const FencedKvProclet& shard) {
  EXPECT_EQ(shard.data_bytes(),
            static_cast<int64_t>(shard.size()) * 64 +
                static_cast<int64_t>(shard.guard().executed_count()) * 16);
}

uint64_t KeyOwnedBy(const FencedKvProclet& shard) {
  for (uint64_t key = 0;; ++key) {
    if (shard.Owns(key)) {
      return key;
    }
  }
}

// Applies writes to `shard` with rids drawn from `next_rid` (ascending with
// gaps, a late one now and then) and keys it owns. `executed` is every rid
// the shard has executed: a rid in it must come back a duplicate, any other
// must apply and joins it. Rids skipped over stay unexecuted, so the
// callers can retry them as late ones.
void WriteSome(FencedKvProclet& shard, Rng& rng, uint64_t& next_rid,
               int writes, std::set<uint64_t>& executed) {
  for (int n = 0; n < writes; ++n) {
    next_rid += 2 + rng.NextBounded(3);
    const uint64_t rid =
        rng.NextBool(0.15) ? next_rid - 1 - rng.NextBounded(12) : next_rid;
    uint64_t key = rng.NextBounded(kKeys);
    while (!shard.Owns(key)) {
      key = rng.NextBounded(kKeys);
    }
    const bool fresh = executed.insert(rid).second;
    const FencedKvProclet::PutResult r =
        shard.Put(shard.epoch(), rid, key, static_cast<int64_t>(rid));
    EXPECT_EQ(r.applied, fresh) << "rid " << rid;
    EXPECT_EQ(r.duplicate, !fresh) << "rid " << rid;
    ExpectPriced(shard);
  }
}

// A retry of every rid in `rids` is a duplicate on `shard` and applies
// nothing.
void ExpectAllDuplicates(FencedKvProclet& shard,
                         const std::set<uint64_t>& rids) {
  const uint64_t key = KeyOwnedBy(shard);
  const int64_t applies = shard.ApplyCount(key);
  for (const uint64_t rid : rids) {
    const FencedKvProclet::PutResult r = shard.Put(shard.epoch(), rid, key, -1);
    ASSERT_TRUE(r.duplicate) << "rid " << rid << " re-applied";
  }
  EXPECT_EQ(shard.ApplyCount(key), applies);
}

// The newest rid below the largest in `rids` that is not in it.
uint64_t LateUnexecuted(const std::set<uint64_t>& rids) {
  uint64_t late = *rids.rbegin();
  while (rids.count(late) != 0) {
    --late;
  }
  return late;
}

uint64_t MedianHash(const FencedKvProclet& shard) {
  std::vector<uint64_t> hashes;
  for (uint64_t key = 0; key < kKeys; ++key) {
    if (shard.Get(key).ok()) {
      hashes.push_back(KvShardHash(key));
    }
  }
  std::sort(hashes.begin(), hashes.end());
  return hashes[hashes.size() / 2];
}

TEST(FencedKvHooksTest, BothSplitHalvesDedupEveryRidTheDonorApplied) {
  Fixture f;
  Rng rng(11);
  uint64_t next_rid = 1000;
  FencedKvProclet* donor = f.MakeShard(1, 0, UINT64_MAX);
  std::set<uint64_t> applied;
  WriteSome(*donor, rng, next_rid, 600, applied);
  ASSERT_EQ(donor->guard().executed_count(), applied.size());

  FencedKvProclet::SplitPayload payload =
      donor->ExtractUpperRange(MedianHash(*donor));
  EXPECT_EQ(payload.total_bytes,
            static_cast<int64_t>(payload.kv.size()) * 64 +
                static_cast<int64_t>(applied.size()) * 16);
  EXPECT_EQ(payload.guard.executed_count(), applied.size());
  ExpectPriced(*donor);

  FencedKvProclet* upper =
      f.MakeShard(2, payload.range_begin, payload.range_end);
  ASSERT_TRUE(upper->AdoptPayload(std::move(payload)).ok());
  ExpectPriced(*upper);
  EXPECT_EQ(upper->guard().executed_count(), applied.size());

  ExpectAllDuplicates(*donor, applied);
  ExpectAllDuplicates(*upper, applied);
  ExpectPriced(*donor);
  ExpectPriced(*upper);

  // A late rid that never executed is not a duplicate on either half.
  const uint64_t late = LateUnexecuted(applied);
  EXPECT_TRUE(
      donor->Put(donor->epoch(), late, KeyOwnedBy(*donor), 1).applied);
  EXPECT_TRUE(
      upper->Put(upper->epoch(), late, KeyOwnedBy(*upper), 1).applied);
  ExpectPriced(*donor);
  ExpectPriced(*upper);
}

TEST(FencedKvHooksTest, MergeSurvivorDedupsTheUnion) {
  Fixture f;
  Rng rng(23);
  uint64_t next_rid = 1000;
  FencedKvProclet* left = f.MakeShard(1, 0, UINT64_MAX);
  std::set<uint64_t> left_rids;
  WriteSome(*left, rng, next_rid, 300, left_rids);
  FencedKvProclet::SplitPayload half =
      left->ExtractUpperRange(MedianHash(*left));
  FencedKvProclet* right = f.MakeShard(2, half.range_begin, half.range_end);
  ASSERT_TRUE(right->AdoptPayload(std::move(half)).ok());

  // After the split the halves diverge: interleaved rids from one counter,
  // so each side's late rids sit below the other side's newest.
  std::set<uint64_t> right_rids = left_rids;
  for (int round = 0; round < 20; ++round) {
    WriteSome(*left, rng, next_rid, 15, left_rids);
    WriteSome(*right, rng, next_rid, 15, right_rids);
  }
  std::set<uint64_t> all = left_rids;
  all.insert(right_rids.begin(), right_rids.end());
  ASSERT_EQ(left->guard().executed_count(), left_rids.size());
  ASSERT_EQ(right->guard().executed_count(), right_rids.size());
  ASSERT_GT(all.size(), left_rids.size());
  ASSERT_GT(all.size(), right_rids.size());

  FencedKvProclet::SplitPayload payload = right->ExtractAll();
  EXPECT_EQ(payload.total_bytes,
            static_cast<int64_t>(payload.kv.size()) * 64 +
                static_cast<int64_t>(right_rids.size()) * 16);
  // The emptied donor keeps its dedup state while the copy is in flight.
  EXPECT_EQ(right->size(), 0u);
  EXPECT_EQ(right->guard().executed_count(), right_rids.size());
  ExpectPriced(*right);

  ASSERT_TRUE(left->AbsorbRightNeighbor(std::move(payload)).ok());
  EXPECT_EQ(left->range_end(), UINT64_MAX);
  EXPECT_EQ(left->guard().executed_count(), all.size());
  ExpectPriced(*left);

  ExpectAllDuplicates(*left, all);
  const uint64_t late = LateUnexecuted(all);
  EXPECT_TRUE(left->Put(left->epoch(), late, KeyOwnedBy(*left), 1).applied);
  ExpectPriced(*left);
}

}  // namespace
}  // namespace quicksand
