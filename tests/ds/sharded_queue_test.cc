#include "quicksand/ds/sharded_queue.h"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "quicksand/cluster/fault_injector.h"
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

using IntQueue = ShardedQueue<int64_t>;

Task<IntQueue> MakeQueue(Ctx ctx, IntQueue::Options options = {}) {
  auto create = IntQueue::Create(ctx, options);
  Result<IntQueue> q = co_await std::move(create);
  co_return *q;
}

Task<> PushN(IntQueue& q, Ctx ctx, int64_t n, int64_t offset = 0) {
  for (int64_t i = 0; i < n; ++i) {
    auto push = q.Push(ctx, offset + i);
    Status s = co_await std::move(push);
    EXPECT_TRUE(s.ok());
  }
}

TEST(ShardedQueueTest, FifoWithinProducer) {
  Fixture f;
  IntQueue q = f.sim.BlockOn(MakeQueue(f.ctx()));
  f.sim.BlockOn(PushN(q, f.ctx(), 10));
  for (int64_t i = 0; i < 10; ++i) {
    Result<std::optional<int64_t>> v = f.sim.BlockOn(q.TryPop(f.ctx()));
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(v->has_value());
    EXPECT_EQ(**v, i);
  }
}

TEST(ShardedQueueTest, EmptyPopReturnsNothing) {
  Fixture f;
  IntQueue q = f.sim.BlockOn(MakeQueue(f.ctx()));
  Result<std::optional<int64_t>> v = f.sim.BlockOn(q.TryPop(f.ctx()));
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->has_value());
}

TEST(ShardedQueueTest, BatchPopRespectsLimit) {
  Fixture f;
  IntQueue q = f.sim.BlockOn(MakeQueue(f.ctx()));
  f.sim.BlockOn(PushN(q, f.ctx(), 20));
  Result<std::vector<int64_t>> batch = f.sim.BlockOn(q.TryPopBatch(f.ctx(), 7));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->size(), 7u);
  EXPECT_EQ((*batch)[0], 0);
  EXPECT_EQ(*f.sim.BlockOn(q.Size(f.ctx())), 13);
}

TEST(ShardedQueueTest, BurstCreatesSegments) {
  Fixture f;
  IntQueue::Options options;
  options.max_segment_bytes = 256;  // 32 ints per segment
  IntQueue q = f.sim.BlockOn(MakeQueue(f.ctx(), options));
  f.sim.BlockOn(PushN(q, f.ctx(), 200));
  f.sim.BlockOn(q.router().Refresh(f.ctx()));
  EXPECT_GE(q.router().cached_shards().size(), 5u);
  EXPECT_EQ(*f.sim.BlockOn(q.Size(f.ctx())), 200);
}

TEST(ShardedQueueTest, DrainedSegmentsAreReclaimed) {
  Fixture f;
  IntQueue::Options options;
  options.max_segment_bytes = 256;
  IntQueue q = f.sim.BlockOn(MakeQueue(f.ctx(), options));
  f.sim.BlockOn(PushN(q, f.ctx(), 200));
  const size_t proclets_full = f.rt->proclet_count();
  // Drain fully.
  int64_t seen = 0;
  while (true) {
    Result<std::vector<int64_t>> batch = f.sim.BlockOn(q.TryPopBatch(f.ctx(), 64));
    ASSERT_TRUE(batch.ok());
    if (batch->empty()) {
      break;
    }
    seen += static_cast<int64_t>(batch->size());
  }
  EXPECT_EQ(seen, 200);
  f.sim.RunUntilIdle();
  EXPECT_LT(f.rt->proclet_count(), proclets_full);  // segments destroyed
}

TEST(ShardedQueueTest, OrderPreservedAcrossSegments) {
  Fixture f;
  IntQueue::Options options;
  options.max_segment_bytes = 128;
  IntQueue q = f.sim.BlockOn(MakeQueue(f.ctx(), options));
  f.sim.BlockOn(PushN(q, f.ctx(), 100));
  int64_t expected = 0;
  while (true) {
    Result<std::optional<int64_t>> v = f.sim.BlockOn(q.TryPop(f.ctx()));
    ASSERT_TRUE(v.ok());
    if (!v->has_value()) {
      break;
    }
    EXPECT_EQ(**v, expected++);
  }
  EXPECT_EQ(expected, 100);
}

Task<> Producer(IntQueue q, Ctx ctx, Simulator& sim, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    auto push = q.Push(ctx, i);
    Status s = co_await std::move(push);
    EXPECT_TRUE(s.ok());
    co_await sim.Sleep(10_us);
  }
}

Task<> Consumer(IntQueue q, Ctx ctx, Simulator& sim, int64_t expect,
                std::vector<int64_t>& out) {
  while (static_cast<int64_t>(out.size()) < expect) {
    auto pop = q.TryPopBatch(ctx, 16);
    Result<std::vector<int64_t>> batch = co_await std::move(pop);
    EXPECT_TRUE(batch.ok());
    if (!batch.ok()) {
      co_return;
    }
    for (int64_t v : *batch) {
      out.push_back(v);
    }
    if (batch->empty()) {
      co_await sim.Sleep(50_us);
    }
  }
}

TEST(ShardedQueueTest, ConcurrentProducerConsumer) {
  Fixture f;
  IntQueue::Options options;
  options.max_segment_bytes = 512;
  IntQueue q = f.sim.BlockOn(MakeQueue(f.ctx(), options));
  std::vector<int64_t> out;
  f.sim.Spawn(Producer(q, f.rt->CtxOn(0), f.sim, 300), "producer");
  Fiber consumer = f.sim.Spawn(Consumer(q, f.rt->CtxOn(1), f.sim, 300, out), "consumer");
  f.sim.RunUntilIdle();
  EXPECT_TRUE(consumer.done());
  ASSERT_EQ(out.size(), 300u);
  for (int64_t i = 0; i < 300; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i);
  }
}

TEST(ShardedQueueTest, SegmentsCanMigrateMidstream) {
  Fixture f;
  IntQueue::Options options;
  options.max_segment_bytes = 256;
  IntQueue q = f.sim.BlockOn(MakeQueue(f.ctx(), options));
  f.sim.BlockOn(PushN(q, f.ctx(), 100));
  f.sim.BlockOn(q.router().Refresh(f.ctx()));
  for (const ShardInfo& s : q.router().cached_shards()) {
    EXPECT_TRUE(f.sim.BlockOn(f.rt->Migrate(s.proclet, 1)).ok());
  }
  int64_t expected = 0;
  while (true) {
    Result<std::optional<int64_t>> v = f.sim.BlockOn(q.TryPop(f.ctx()));
    ASSERT_TRUE(v.ok());
    if (!v->has_value()) {
      break;
    }
    EXPECT_EQ(**v, expected++);
  }
  EXPECT_EQ(expected, 100);
}

Task<> SizeInto(IntQueue& q, Ctx ctx, std::optional<Result<int64_t>>& out) {
  auto size = q.Size(ctx);
  out.emplace(co_await std::move(size));
}

// Two scans on one handle, as the trainer's GPU fibers share one: the second
// scan's refresh must not free the segment list the first is walking.
TEST(ShardedQueueTest, ConcurrentSizesOnOneHandleBothCount) {
  Fixture f(3);
  IntQueue::Options options;
  options.max_segment_bytes = 256;
  IntQueue q = f.sim.BlockOn(MakeQueue(f.ctx(), options));
  f.sim.BlockOn(PushN(q, f.ctx(), 200));
  std::optional<Result<int64_t>> first;
  std::optional<Result<int64_t>> second;
  f.sim.Spawn(SizeInto(q, f.rt->CtxOn(2), first), "size_a");
  f.sim.Spawn(SizeInto(q, f.rt->CtxOn(2), second), "size_b");
  f.sim.RunUntilIdle();
  ASSERT_TRUE(first.has_value() && first->ok());
  ASSERT_TRUE(second.has_value() && second->ok());
  EXPECT_EQ(**first, 200);
  EXPECT_EQ(**second, 200);
}

// --- Blocking pop -------------------------------------------------------------

// Where the queue's oldest segment lives, and its id.
ShardInfo HeadSegment(Fixture& f, IntQueue& q) {
  f.sim.BlockOn(q.router().Refresh(f.ctx()));
  return q.router().cached_shards().front();
}

// One blocking pop: records what it got (or that it failed) and when.
struct PopRecord {
  std::vector<int64_t> items;
  std::optional<Status> status;
  bool lost = false;
  SimTime done_at = SimTime::Zero();
};

Task<> BlockingPop(IntQueue q, Ctx ctx, int64_t max_items, PopRecord& out) {
  try {
    auto pop = q.PopBatch(ctx, max_items);
    Result<std::vector<int64_t>> got = co_await std::move(pop);
    out.status = got.status();
    if (got.ok()) {
      out.items = std::move(*got);
    }
  } catch (const ProcletLostError&) {
    out.lost = true;
  }
  out.done_at = ctx.rt->sim().Now();
}

TEST(ShardedQueueBlockingPopTest, ReturnsThePushAfterTheResponseLeg) {
  Fixture f;
  IntQueue q = f.sim.BlockOn(MakeQueue(f.ctx()));
  const MachineId home = f.rt->LocationOf(HeadSegment(f, q).proclet);
  const MachineId away = 1 - home;
  PopRecord rec;
  Fiber consumer =
      f.sim.Spawn(BlockingPop(q, f.rt->CtxOn(away), 8, rec), "consumer");
  f.sim.RunUntilIdle();  // parked: no events left, nothing returned
  EXPECT_FALSE(consumer.done());
  f.sim.RunFor(1_ms);
  // A push from the segment's own machine is a local call: the item lands
  // at the instant the push returns.
  ASSERT_TRUE(f.sim.BlockOn(q.Push(f.rt->CtxOn(home), 42)).ok());
  const SimTime landed = f.sim.Now();
  f.sim.RunUntilIdle();
  ASSERT_TRUE(consumer.done());
  ASSERT_TRUE(rec.status.has_value() && rec.status->ok());
  EXPECT_EQ(rec.items, std::vector<int64_t>{42});
  const int64_t response_bytes =
      WireSizeOf(rec.items) + 1 + Rpc::kHeaderBytes;  // PopResult + header
  EXPECT_EQ(rec.done_at,
            landed + f.cluster.fabric().UnloadedTransferTime(response_bytes));
}

TEST(ShardedQueueBlockingPopTest, ParkedConsumersAreServedOldestFirst) {
  Fixture f;
  IntQueue q = f.sim.BlockOn(MakeQueue(f.ctx()));
  const MachineId home = f.rt->LocationOf(HeadSegment(f, q).proclet);
  std::vector<PopRecord> recs(3);
  for (PopRecord& rec : recs) {
    f.sim.Spawn(BlockingPop(q, f.rt->CtxOn(1 - home), 4, rec), "consumer");
    f.sim.RunFor(100_us);  // each one parks before the next arrives
  }
  for (int64_t v = 0; v < 3; ++v) {
    ASSERT_TRUE(f.sim.BlockOn(q.Push(f.rt->CtxOn(home), v)).ok());
    f.sim.RunFor(100_us);
  }
  for (int64_t v = 0; v < 3; ++v) {
    EXPECT_EQ(recs[static_cast<size_t>(v)].items, std::vector<int64_t>{v});
  }
}

TEST(ShardedQueueBlockingPopTest, SealReleasesParkedConsumersToTheNextSegment) {
  Fixture f;
  IntQueue::Options options;
  options.max_segment_bytes = 16;  // two ints, then the tail grows
  IntQueue q = f.sim.BlockOn(MakeQueue(f.ctx(), options));
  const ProcletId first = HeadSegment(f, q).proclet;
  const Ctx home = f.rt->CtxOn(f.rt->LocationOf(first));
  constexpr int kConsumers = 3;
  constexpr int64_t kPerConsumer = 4;
  std::vector<std::vector<int64_t>> got(kConsumers);
  std::vector<Fiber> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.push_back(f.sim.Spawn(
        [](IntQueue q, Ctx ctx, std::vector<int64_t>& out) -> Task<> {
          while (static_cast<int64_t>(out.size()) < kPerConsumer) {
            auto pop = q.PopBatch(ctx, 1);
            Result<std::vector<int64_t>> batch = co_await std::move(pop);
            EXPECT_TRUE(batch.ok());
            if (!batch.ok()) {
              co_return;
            }
            out.insert(out.end(), batch->begin(), batch->end());
          }
        }(q, f.rt->CtxOn(1 - home.machine), got[static_cast<size_t>(c)]),
        "consumer"));
  }
  f.sim.RunUntilIdle();
  // Two local pushes land in one instant and fill the first segment; the
  // second grows the tail, and the seal releases the consumer still parked
  // on the first segment.
  f.sim.BlockOn(PushN(q, home, 2));
  f.sim.RunUntilIdle();
  EXPECT_EQ(f.rt->Find(first), nullptr) << "the sealed, drained segment is unlinked";
  for (int64_t v = 2; v < kPerConsumer * kConsumers; ++v) {
    f.sim.BlockOn(PushN(q, home, 1, v));
    f.sim.RunFor(50_us);
  }
  f.sim.RunUntilIdle();
  std::vector<int64_t> all;
  for (int c = 0; c < kConsumers; ++c) {
    EXPECT_TRUE(consumers[static_cast<size_t>(c)].done());
    const std::vector<int64_t>& mine = got[static_cast<size_t>(c)];
    EXPECT_TRUE(std::is_sorted(mine.begin(), mine.end())) << "FIFO per consumer";
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  std::vector<int64_t> want(kPerConsumer * kConsumers);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(all, want);
}

TEST(ShardedQueueBlockingPopTest, AStaleGrowerLinksNoSegmentBehindTheTail) {
  // A producer fills the first segment and starts growing the tail, but its
  // link request crawls to the index; meanwhile another producer grows the
  // tail twice and a consumer drains and unlinks the first two segments.
  // The late link must be refused: a segment linked below the live tail
  // becomes the head, and a consumer then waits there while every later
  // push lands behind it.
  Fixture f(3);
  IntQueue::Options options;
  options.max_segment_bytes = 16;  // two ints
  IntQueue q = f.sim.BlockOn(MakeQueue(f.ctx(), options));
  const MachineId index_home = f.rt->LocationOf(q.index().id());
  const MachineId seg_home = (index_home + 1) % 3;
  const MachineId slow = (index_home + 2) % 3;
  ASSERT_TRUE(f.sim.BlockOn(f.rt->Migrate(HeadSegment(f, q).proclet, seg_home)).ok());
  // Warm the slow producer's location cache, so only its index calls crawl.
  ASSERT_TRUE(f.sim.BlockOn(q.Size(f.rt->CtxOn(slow))).ok());
  f.cluster.fabric().SetLinkDelay(slow, index_home, 2_ms);
  const Ctx fast = f.rt->CtxOn(seg_home);

  f.sim.BlockOn(PushN(q, fast, 1, 0));
  // The slow producer's push fills segment 0 and starts its grow.
  Fiber stale = f.sim.Spawn(PushN(q, f.rt->CtxOn(slow), 1, 1), "stale_grower");
  f.sim.RunFor(100_us);
  ASSERT_FALSE(stale.done());
  f.sim.BlockOn(PushN(q, fast, 3, 2));  // grows the tail twice
  // Drain segments 0 and 1; both are unlinked.
  int64_t drained = 0;
  for (int i = 0; i < 3; ++i) {
    drained += static_cast<int64_t>(f.sim.BlockOn(q.TryPopBatch(fast, 8))->size());
  }
  EXPECT_EQ(drained, 5);
  f.sim.RunFor(20_ms);
  ASSERT_TRUE(stale.done());

  PopRecord rec;
  Fiber consumer = f.sim.Spawn(BlockingPop(q, fast, 8, rec), "consumer");
  f.sim.RunUntilIdle();
  f.sim.BlockOn(PushN(q, fast, 3, 5));
  f.sim.RunUntilIdle();
  EXPECT_TRUE(consumer.done()) << "the consumer waits at the head the pushes reach";
  EXPECT_FALSE(rec.items.empty());
}

TEST(ShardedQueueBlockingPopTest, MigratingTheHeadReleasesAParkedConsumer) {
  Fixture f;
  IntQueue q = f.sim.BlockOn(MakeQueue(f.ctx()));
  const ProcletId head = HeadSegment(f, q).proclet;
  const MachineId home = f.rt->LocationOf(head);
  const MachineId away = 1 - home;
  // Reference: the same segment's migration with nothing parked, there and
  // back.
  SimTime start = f.sim.Now();
  ASSERT_TRUE(f.sim.BlockOn(f.rt->Migrate(head, away)).ok());
  const Duration unparked = f.sim.Now() - start;
  ASSERT_TRUE(f.sim.BlockOn(f.rt->Migrate(head, home)).ok());

  PopRecord rec;
  Fiber consumer =
      f.sim.Spawn(BlockingPop(q, f.rt->CtxOn(away), 8, rec), "consumer");
  f.sim.RunUntilIdle();
  ASSERT_FALSE(consumer.done());
  // Without the gate-close release the drain would wait on the parked call
  // forever and BlockOn would report a deadlock.
  start = f.sim.Now();
  ASSERT_TRUE(f.sim.BlockOn(f.rt->Migrate(head, away)).ok());
  EXPECT_EQ(f.sim.Now() - start, unparked);
  EXPECT_LT(unparked, 1_ms);
  f.sim.RunUntilIdle();
  EXPECT_FALSE(consumer.done()) << "the released pop re-parks on the new host";

  ASSERT_TRUE(f.sim.BlockOn(q.Push(f.rt->CtxOn(away), 7)).ok());
  f.sim.RunUntilIdle();
  ASSERT_TRUE(consumer.done());
  EXPECT_EQ(rec.items, std::vector<int64_t>{7});
}

TEST(ShardedQueueBlockingPopTest, LosingTheSegmentMachineSurfacesLoss) {
  Fixture f(3);
  FaultInjector faults(f.sim, f.cluster);
  f.rt->AttachFaultInjector(faults);
  IntQueue q = f.sim.BlockOn(MakeQueue(f.ctx()));
  const ProcletId head = HeadSegment(f, q).proclet;
  ASSERT_TRUE(f.sim.BlockOn(f.rt->Migrate(head, 2)).ok());
  PopRecord rec;
  Fiber consumer = f.sim.Spawn(BlockingPop(q, f.rt->CtxOn(1), 8, rec), "consumer");
  f.sim.RunUntilIdle();
  ASSERT_FALSE(consumer.done());
  faults.FailNow(2);
  f.sim.RunUntilIdle();
  ASSERT_TRUE(consumer.done());
  EXPECT_TRUE(rec.lost) << "the parked pop surfaces ProcletLostError";
}

}  // namespace
}  // namespace quicksand
