// The loss path of every ShardedVector and ShardedMap operation.
//
// Each structure has one shard, and the machine hosting it (not the
// index's, not the controller) is fail-stopped. Without recovery, every op
// answers DataLoss naming the lost range. With checkpoints and a
// RecoveryCoordinator armed, every op stalls until the shard is restored and
// then answers with the right value, at a pinned sim time.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "quicksand/cluster/fault_injector.h"
#include "quicksand/common/bytes.h"
#include "quicksand/ds/sharded_map.h"
#include "quicksand/ds/sharded_vector.h"
#include "quicksand/durability/checkpoint_manager.h"
#include "quicksand/durability/recovery_coordinator.h"

namespace quicksand {
namespace {

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;
  std::unique_ptr<FaultInjector> faults;
  std::unique_ptr<CheckpointManager> checkpoints;
  std::unique_ptr<RecoveryCoordinator> recovery;

  // Four 2 GiB machines. Machine 0 (the controller) is pre-charged 1 GiB,
  // so best-fit puts the index on machine 1 and the shard and the index's
  // checkpoint depot on two others.
  explicit Fixture(bool recover) {
    for (int i = 0; i < 4; ++i) {
      MachineSpec spec;
      spec.cores = 4;
      spec.memory_bytes = 2_GiB;
      cluster.AddMachine(spec);
    }
    QS_CHECK(cluster.machine(0).memory().TryCharge(1_GiB));
    rt = std::make_unique<Runtime>(sim, cluster);
    faults = std::make_unique<FaultInjector>(sim, cluster);
    rt->AttachFaultInjector(*faults);
    if (recover) {
      checkpoints = std::make_unique<CheckpointManager>(
          *rt, CheckpointManager::Options{Duration::Millis(5)});
      recovery = std::make_unique<RecoveryCoordinator>(*rt);
      recovery->AttachCheckpoints(checkpoints.get());
      checkpoints->Arm(*faults);
      recovery->Arm(*faults);
      checkpoints->Start();
    }
  }

  Ctx ctx() { return rt->CtxOn(0); }

  ShardedOptions options() {
    ShardedOptions options;
    options.checkpoints = checkpoints.get();
    return options;
  }

  // Lets the last writes reach a checkpoint, checks the layout, and
  // fail-stops the shard's machine.
  template <typename DS>
  void LoseTheShard(DS& ds) {
    if (checkpoints != nullptr) {
      sim.RunFor(Duration::Millis(11));
    }
    ASSERT_EQ(rt->LocationOf(ds.index().id()), 1u);
    ASSERT_EQ(ds.router().cached_shards().size(), 1u);
    const ProcletId shard = ds.router().cached_shards().front().proclet;
    const MachineId victim = rt->LocationOf(shard);
    ASSERT_NE(victim, 0u);
    ASSERT_NE(victim, 1u);
    faults->FailNow(victim);
    ASSERT_TRUE(rt->IsLost(shard));
  }
};

// An op's answer: its status, and its value rendered as text (empty for
// ops that answer only a Status).
struct Outcome {
  Status status;
  std::string value;
};

template <typename T>
Outcome Rendered(const Result<T>& result) {
  return Outcome{result.status(), result.ok() ? std::to_string(*result) : ""};
}

// --- ShardedVector ------------------------------------------------------------

enum class VectorOp { kPushBack, kGet, kSet, kGetRange, kSize };

// Elements 0..9 hold 0, 10, ..., 90.
constexpr int64_t kVectorElements = 10;

Task<Outcome> RunVectorOp(Ctx ctx, ShardedVector<int64_t> vec, VectorOp op) {
  switch (op) {
    case VectorOp::kPushBack: {
      auto push = vec.PushBack(ctx, 100);
      Result<uint64_t> index = co_await std::move(push);
      co_return Rendered(index);
    }
    case VectorOp::kGet: {
      auto get = vec.Get(ctx, 3);
      Result<int64_t> value = co_await std::move(get);
      co_return Rendered(value);
    }
    case VectorOp::kSet: {
      auto set = vec.Set(ctx, 3, 42);
      Status status = co_await std::move(set);
      co_return Outcome{status, ""};
    }
    case VectorOp::kGetRange: {
      auto read = vec.GetRange(ctx, 0, 5);
      Result<std::vector<int64_t>> range = co_await std::move(read);
      std::string text;
      if (range.ok()) {
        for (int64_t v : *range) {
          text += (text.empty() ? "" : ",") + std::to_string(v);
        }
      }
      co_return Outcome{range.status(), text};
    }
    case VectorOp::kSize: {
      auto size = vec.Size(ctx);
      Result<uint64_t> count = co_await std::move(size);
      co_return Rendered(count);
    }
  }
  co_return Outcome{Status::Internal("unknown op"), ""};
}

struct VectorCase {
  const char* name;
  VectorOp op;
  const char* value;       // the answer once the shard is restored
  int64_t answered_at_ns;  // when that answer arrives
};

const VectorCase kVectorCases[] = {
    {"PushBack", VectorOp::kPushBack, "10", 11465120},
    {"Get", VectorOp::kGet, "30", 11465118},
    {"Set", VectorOp::kSet, "", 11465118},
    {"GetRange", VectorOp::kGetRange, "0,10,20,30,40", 11465122},
    {"Size", VectorOp::kSize, "10", 11477132},
};

class VectorLossTest : public ::testing::TestWithParam<VectorCase> {
 protected:
  // A vector of kVectorElements in one shard.
  static ShardedVector<int64_t> Fill(Fixture& f) {
    ShardedVector<int64_t> vec = *f.sim.BlockOn(
        ShardedVector<int64_t>::Create(f.ctx(), f.options()));
    for (int64_t i = 0; i < kVectorElements; ++i) {
      QS_CHECK(f.sim.BlockOn(vec.PushBack(f.ctx(), i * 10)).ok());
    }
    return vec;
  }
};

TEST_P(VectorLossTest, WithoutRecoveryAnswersDataLossNamingTheRange) {
  Fixture f(/*recover=*/false);
  ShardedVector<int64_t> vec = Fill(f);
  ASSERT_NO_FATAL_FAILURE(f.LoseTheShard(vec));
  const Outcome out = f.sim.BlockOn(RunVectorOp(f.ctx(), vec, GetParam().op));
  EXPECT_EQ(out.status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(out.status.message(), "elements [0, end) lost to a machine failure");
}

TEST_P(VectorLossTest, WithRecoveryStallsThenAnswers) {
  Fixture f(/*recover=*/true);
  ShardedVector<int64_t> vec = Fill(f);
  ASSERT_NO_FATAL_FAILURE(f.LoseTheShard(vec));
  const Outcome out = f.sim.BlockOn(RunVectorOp(f.ctx(), vec, GetParam().op));
  EXPECT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.value, GetParam().value);
  EXPECT_EQ(f.rt->stats().restored_proclets, 1);
  EXPECT_EQ(f.sim.Now().nanos(), GetParam().answered_at_ns);
}

INSTANTIATE_TEST_SUITE_P(Ops, VectorLossTest, ::testing::ValuesIn(kVectorCases),
                         [](const auto& info) { return info.param.name; });

// --- ShardedMap ---------------------------------------------------------------

enum class MapOp { kPut, kGet, kErase, kSize, kItems };

// Keys 0..49 map to their squares.
constexpr int64_t kMapKeys = 50;

Task<Outcome> RunMapOp(Ctx ctx, ShardedMap<int64_t, int64_t> map, MapOp op) {
  switch (op) {
    case MapOp::kPut: {
      auto put = map.Put(ctx, 100, 7);
      Status status = co_await std::move(put);
      co_return Outcome{status, ""};
    }
    case MapOp::kGet: {
      auto get = map.Get(ctx, 7);
      Result<int64_t> value = co_await std::move(get);
      co_return Rendered(value);
    }
    case MapOp::kErase: {
      auto erase = map.Erase(ctx, 7);
      Status status = co_await std::move(erase);
      co_return Outcome{status, ""};
    }
    case MapOp::kSize: {
      auto size = map.Size(ctx);
      Result<int64_t> count = co_await std::move(size);
      co_return Rendered(count);
    }
    case MapOp::kItems: {
      auto items = map.Items(ctx);
      Result<std::vector<std::pair<int64_t, int64_t>>> entries =
          co_await std::move(items);
      // Entry count and value sum.
      std::string text;
      if (entries.ok()) {
        int64_t sum = 0;
        for (const auto& [key, value] : *entries) {
          sum += value;
        }
        text = std::to_string(entries->size()) + ":" + std::to_string(sum);
      }
      co_return Outcome{entries.status(), text};
    }
  }
  co_return Outcome{Status::Internal("unknown op"), ""};
}

struct MapCase {
  const char* name;
  MapOp op;
  const char* value;
  int64_t answered_at_ns;
};

const MapCase kMapCases[] = {
    {"Put", MapOp::kPut, "", 11945573},
    {"Get", MapOp::kGet, "49", 11945572},
    {"Erase", MapOp::kErase, "", 11945572},
    {"Size", MapOp::kSize, "50", 11957586},
    {"Items", MapOp::kItems, "50:40425", 11957650},
};

class MapLossTest : public ::testing::TestWithParam<MapCase> {
 protected:
  // A map of kMapKeys in one shard.
  static ShardedMap<int64_t, int64_t> Fill(Fixture& f) {
    ShardedMap<int64_t, int64_t> map = *f.sim.BlockOn(
        ShardedMap<int64_t, int64_t>::Create(f.ctx(), f.options()));
    for (int64_t k = 0; k < kMapKeys; ++k) {
      QS_CHECK(f.sim.BlockOn(map.Put(f.ctx(), k, k * k)).ok());
    }
    return map;
  }
};

TEST_P(MapLossTest, WithoutRecoveryAnswersDataLossNamingTheRange) {
  Fixture f(/*recover=*/false);
  ShardedMap<int64_t, int64_t> map = Fill(f);
  ASSERT_NO_FATAL_FAILURE(f.LoseTheShard(map));
  const Outcome out = f.sim.BlockOn(RunMapOp(f.ctx(), map, GetParam().op));
  EXPECT_EQ(out.status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(out.status.message(),
            "keys projecting to [0, 18446744073709551615) lost to a machine "
            "failure");
}

TEST_P(MapLossTest, WithRecoveryStallsThenAnswers) {
  Fixture f(/*recover=*/true);
  ShardedMap<int64_t, int64_t> map = Fill(f);
  ASSERT_NO_FATAL_FAILURE(f.LoseTheShard(map));
  const Outcome out = f.sim.BlockOn(RunMapOp(f.ctx(), map, GetParam().op));
  EXPECT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.value, GetParam().value);
  EXPECT_EQ(f.rt->stats().restored_proclets, 1);
  EXPECT_EQ(f.sim.Now().nanos(), GetParam().answered_at_ns);
}

INSTANTIATE_TEST_SUITE_P(Ops, MapLossTest, ::testing::ValuesIn(kMapCases),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace quicksand
