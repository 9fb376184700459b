// Property: blocking pops stay exactly-once and FIFO while the queue's tail
// grows and its head segment keeps moving.
//
// Producers on two machines push tagged values; four consumers wait in
// PopBatch; segments hold eight values, so the tail grows whenever a backlog
// builds; and a migrator moves the head segment between the machines at
// random moments — each move releases the pops parked there, which re-issue
// and follow the segment. Every value must arrive exactly once, each
// consumer must see every producer's values in push order, and every fiber
// must finish.

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "quicksand/common/bytes.h"
#include "quicksand/common/random.h"
#include "quicksand/ds/sharded_queue.h"

namespace quicksand {
namespace {

using IntQueue = ShardedQueue<int64_t>;

constexpr int kProducers = 4;
constexpr int kConsumers = 4;
constexpr int64_t kPerProducer = 60;
constexpr int64_t kStride = 1000;  // value = producer * kStride + sequence
constexpr int64_t kSentinel = -1;  // one per consumer ends the run

struct World {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;
  bool stop_migrating = false;
  int64_t migrations = 0;
  std::vector<std::vector<int64_t>> got{kConsumers};

  World() {
    for (int i = 0; i < 2; ++i) {
      MachineSpec spec;
      spec.cores = 4;
      spec.memory_bytes = 2_GiB;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
  }
};

Task<> Produce(IntQueue q, Ctx ctx, int64_t producer, uint64_t seed) {
  Rng rng(seed);
  for (int64_t i = 0; i < kPerProducer; ++i) {
    auto push = q.Push(ctx, producer * kStride + i);
    const Status pushed = co_await std::move(push);
    EXPECT_TRUE(pushed.ok()) << pushed.ToString();
    co_await ctx.rt->sim().Sleep(Duration::Micros(static_cast<int64_t>(rng.NextBounded(40))));
  }
}

Task<> Consume(IntQueue q, Ctx ctx, uint64_t seed, std::vector<int64_t>& out) {
  Rng rng(seed);
  for (;;) {
    const int64_t max_items = 1 + static_cast<int64_t>(rng.NextBounded(4));
    auto pop = q.PopBatch(ctx, max_items);
    Result<std::vector<int64_t>> got = co_await std::move(pop);
    if (!got.ok()) {
      // Released more often than one pop retries: wait, then re-issue.
      co_await ctx.rt->sim().Sleep(50_us);
      continue;
    }
    EXPECT_FALSE(got->empty());
    EXPECT_LE(static_cast<int64_t>(got->size()), max_items);
    int64_t sentinels = 0;
    for (int64_t v : *got) {
      if (v == kSentinel) {
        ++sentinels;
      } else {
        out.push_back(v);
      }
    }
    if (sentinels > 0) {
      // Pass any extra sentinel on to a consumer still waiting.
      for (int64_t i = 1; i < sentinels; ++i) {
        auto push = q.Push(ctx, kSentinel);
        const Status pushed = co_await std::move(push);
        EXPECT_TRUE(pushed.ok());
      }
      co_return;
    }
    co_await ctx.rt->sim().Sleep(Duration::Micros(static_cast<int64_t>(rng.NextBounded(150))));
  }
}

Task<> MigrateHead(IntQueue q, Ctx ctx, uint64_t seed, World& world) {
  Rng rng(seed);
  while (!world.stop_migrating) {
    co_await ctx.rt->sim().Sleep(
        Duration::Micros(50 + static_cast<int64_t>(rng.NextBounded(350))));
    auto refresh = q.router().Refresh(ctx);
    co_await std::move(refresh);
    if (q.router().cached_shards().empty()) {
      continue;
    }
    const ProcletId head = q.router().cached_shards().front().proclet;
    const MachineId at = ctx.rt->LocationOf(head);
    if (at == kInvalidMachineId) {
      continue;  // unlinked and destroyed since the refresh
    }
    auto migrate = ctx.rt->Migrate(head, 1 - at);
    const Status moved = co_await std::move(migrate);
    if (moved.ok()) {
      ++world.migrations;
    }
  }
}

bool AllDone(const std::vector<Fiber>& fibers) {
  return std::all_of(fibers.begin(), fibers.end(),
                     [](const Fiber& f) { return f.done(); });
}

class BlockingQueueTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BlockingQueueTest, ExactlyOnceInProducerOrderUnderGrowthAndMigration) {
  const uint64_t seed = GetParam();
  World world;
  IntQueue::Options options;
  options.max_segment_bytes = 64;  // eight values: the tail grows all run
  IntQueue q = *world.sim.BlockOn(IntQueue::Create(world.rt->CtxOn(0), options));
  std::vector<Fiber> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.push_back(world.sim.Spawn(
        Consume(q, world.rt->CtxOn(static_cast<MachineId>(c % 2)), seed * 100 + c,
                world.got[static_cast<size_t>(c)]),
        "consumer"));
  }
  std::vector<Fiber> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.push_back(world.sim.Spawn(
        Produce(q, world.rt->CtxOn(static_cast<MachineId>(p % 2)), p, seed * 100 + 10 + p),
        "producer"));
  }
  Fiber migrator =
      world.sim.Spawn(MigrateHead(q, world.rt->CtxOn(0), seed * 100 + 20, world), "migrator");

  const SimTime deadline = world.sim.Now() + 1_s;
  while (!AllDone(producers) && world.sim.Now() < deadline) {
    world.sim.RunFor(1_ms);
  }
  ASSERT_TRUE(AllDone(producers));
  for (int c = 0; c < kConsumers; ++c) {
    ASSERT_TRUE(world.sim.BlockOn(q.Push(world.rt->CtxOn(0), kSentinel)).ok());
  }
  while (!AllDone(consumers) && world.sim.Now() < deadline) {
    world.sim.RunFor(1_ms);
  }
  world.stop_migrating = true;
  world.sim.RunUntilIdle();
  EXPECT_TRUE(AllDone(consumers));
  EXPECT_TRUE(migrator.done());
  EXPECT_GT(world.migrations, 0);
  EXPECT_GT(world.rt->stats().destructions, 2) << "the tail grew and drained segments went";

  std::map<int64_t, int> seen;
  for (int c = 0; c < kConsumers; ++c) {
    std::vector<int64_t> last(kProducers, -1);
    for (int64_t v : world.got[static_cast<size_t>(c)]) {
      ++seen[v];
      const auto producer = static_cast<size_t>(v / kStride);
      ASSERT_LT(producer, last.size());
      EXPECT_GT(v % kStride, last[producer])
          << "consumer " << c << " got producer " << producer << " out of order";
      last[producer] = v % kStride;
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kProducers * kPerProducer));
  for (const auto& [value, count] : seen) {
    EXPECT_EQ(count, 1) << "value " << value;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockingQueueTest, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace quicksand
