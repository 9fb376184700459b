#include <gtest/gtest.h>

#include "quicksand/cluster/fault_injector.h"
#include "quicksand/common/bytes.h"
#include "quicksand/compute/dist_pool.h"
#include "quicksand/compute/parallel.h"
#include "quicksand/ds/sharded_map.h"
#include "quicksand/ds/sharded_vector.h"
#include "quicksand/proclet/compute_proclet.h"
#include "quicksand/proclet/memory_proclet.h"

namespace quicksand {
namespace {

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;
  std::unique_ptr<FaultInjector> faults;

  explicit Fixture(int machines = 3, int64_t mem = 2_GiB) {
    for (int i = 0; i < machines; ++i) {
      MachineSpec spec;
      spec.cores = 4;
      spec.memory_bytes = mem;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
    faults = std::make_unique<FaultInjector>(sim, cluster);
    rt->AttachFaultInjector(*faults);
  }

  Ref<MemoryProclet> MakePinned(int64_t heap, MachineId where) {
    PlacementRequest req;
    req.heap_bytes = heap;
    req.pinned = where;
    return *sim.BlockOn(rt->Create<MemoryProclet>(rt->CtxOn(0), req));
  }
};

// BlockOn aborts on uncaught exceptions, so expected throws are caught in a
// wrapper task and reported as a value.
enum class CallOutcome { kOk, kLost, kGone, kOther };

Task<CallOutcome> TryCall(Ref<MemoryProclet> p, Ctx ctx) {
  auto call = p.Call(ctx, [](MemoryProclet& m) -> Task<int64_t> {
    co_return static_cast<int64_t>(m.object_count());
  });
  try {
    (void)co_await std::move(call);
    co_return CallOutcome::kOk;
  } catch (const ProcletLostError&) {
    co_return CallOutcome::kLost;
  } catch (const ProcletGoneError&) {
    co_return CallOutcome::kGone;
  } catch (...) {
    co_return CallOutcome::kOther;
  }
}

TEST(FailureTest, CrashMarksHostedProcletsLostAndReleasesResources) {
  Fixture f;
  Ref<MemoryProclet> a = f.MakePinned(64_MiB, 1);
  Ref<MemoryProclet> b = f.MakePinned(32_MiB, 1);
  Ref<MemoryProclet> c = f.MakePinned(16_MiB, 2);
  EXPECT_EQ(f.cluster.machine(1).memory().used(), 96_MiB);

  f.faults->FailNow(1);

  EXPECT_EQ(f.rt->stats().crashes, 1);
  EXPECT_EQ(f.rt->stats().lost_proclets, 2);
  EXPECT_TRUE(f.rt->IsLost(a.id()));
  EXPECT_TRUE(f.rt->IsLost(b.id()));
  EXPECT_FALSE(f.rt->IsLost(c.id()));
  // The accounting no longer matters physically (the memory vanished with
  // the machine) but must not leak into survivors' books.
  EXPECT_EQ(f.cluster.machine(1).memory().used(), 0);
  EXPECT_EQ(f.cluster.machine(2).memory().used(), 16_MiB);
}

TEST(FailureTest, InvokeOnLostProcletThrowsProcletLostError) {
  Fixture f;
  Ref<MemoryProclet> p = f.MakePinned(1_MiB, 1);
  f.faults->FailNow(1);
  EXPECT_EQ(f.sim.BlockOn(TryCall(p, f.rt->CtxOn(0))), CallOutcome::kLost);
  // Deliberate destruction still reports Gone, not Lost.
  Ref<MemoryProclet> q = f.MakePinned(1_MiB, 2);
  EXPECT_TRUE(f.sim.BlockOn(f.rt->Destroy(f.rt->CtxOn(0), q.id())).ok());
  EXPECT_EQ(f.sim.BlockOn(TryCall(q, f.rt->CtxOn(0))), CallOutcome::kGone);
}

TEST(FailureTest, InFlightInvocationFailsInsteadOfHanging) {
  Fixture f;
  Ref<MemoryProclet> p = f.MakePinned(1_MiB, 1);
  // A 10 MiB request takes ~839us on the wire; the machine dies at 100us,
  // mid-request. The invocation must resolve (as Lost), never hang.
  f.faults->ScheduleCrash(SimTime::Zero() + 100_us, 1);
  std::optional<CallOutcome> outcome;
  auto probe = [&]() -> Task<> {
    auto call = p.Call(
        f.rt->CtxOn(0),
        [](MemoryProclet& m) -> Task<int64_t> {
          co_return static_cast<int64_t>(m.object_count());
        },
        10_MiB);
    try {
      (void)co_await std::move(call);
      outcome = CallOutcome::kOk;
    } catch (const ProcletLostError&) {
      outcome = CallOutcome::kLost;
    } catch (...) {
      outcome = CallOutcome::kOther;
    }
  };
  f.sim.Spawn(probe(), "probe");
  f.sim.RunUntilIdle();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, CallOutcome::kLost);
}

TEST(FailureTest, CreateOnFailedMachineIsUnavailable) {
  Fixture f;
  f.faults->FailNow(1);
  PlacementRequest req;
  req.heap_bytes = 1_MiB;
  req.pinned = MachineId{1};
  Result<Ref<MemoryProclet>> r =
      f.sim.BlockOn(f.rt->Create<MemoryProclet>(f.rt->CtxOn(0), req));
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST(FailureTest, PlacementAvoidsRevokedMachines) {
  Fixture f;
  f.faults->ScheduleRevocation(f.sim.Now(), 1, 50_ms);
  for (int i = 0; i < 6; ++i) {
    PlacementRequest req;
    req.heap_bytes = 1_MiB;
    Result<Ref<MemoryProclet>> r =
        f.sim.BlockOn(f.rt->Create<MemoryProclet>(f.rt->CtxOn(0), req));
    ASSERT_TRUE(r.ok());
    EXPECT_NE(r->Location(), 1u);
  }
  EXPECT_EQ(f.faults->revocations(), 1);
}

TEST(FailureTest, DistPoolDropsLostMembersAndKeepsServing) {
  Fixture f;
  DistPool::Options options;
  options.initial_proclets = 3;
  DistPool pool = *f.sim.BlockOn(DistPool::Create(f.rt->CtxOn(0), options));
  ASSERT_EQ(pool.members().size(), 3u);

  // Fail a member's machine — any member not on machine 0 (the controller,
  // which is outside the fail-stop model). Placement spread the members, so
  // survivors remain elsewhere.
  MachineId victim = kInvalidMachineId;
  for (const auto& member : pool.members()) {
    if (member.Location() != 0) {
      victim = member.Location();
      break;
    }
  }
  ASSERT_NE(victim, kInvalidMachineId);
  f.faults->FailNow(victim);

  int64_t ran = 0;
  auto submit = pool.Submit(f.rt->CtxOn(0), [&ran](Ctx) -> Task<> {
    ++ran;
    co_return;
  });
  EXPECT_TRUE(f.sim.BlockOn(std::move(submit)).ok());
  f.sim.RunUntilIdle();
  EXPECT_EQ(ran, 1);
  EXPECT_GE(pool.lost_members(), 1);
  for (const auto& member : pool.members()) {
    EXPECT_FALSE(f.rt->IsLost(member.id()));
  }

  // Submit already reaped the lost member, so RecoverLost has nothing to do.
  const int replaced = f.sim.BlockOn(pool.RecoverLost(f.rt->CtxOn(0)));
  EXPECT_EQ(replaced, 0);
  f.sim.BlockOn(pool.Shutdown(f.rt->CtxOn(0)));
}

TEST(FailureTest, ShardedVectorSurfacesDataLossWithRange) {
  Fixture f;
  ShardedVector<int64_t>::Options options;
  options.max_shard_bytes = 256;  // force several shards
  ShardedVector<int64_t> vec =
      *f.sim.BlockOn(ShardedVector<int64_t>::Create(f.rt->CtxOn(0), options));
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(f.sim.BlockOn(vec.PushBack(f.rt->CtxOn(0), i)).ok());
  }
  // Fail a machine hosting a non-index shard: element 0's home (unless that
  // collides with the shard index's machine, in which case use the tail's).
  const MachineId index_home = f.rt->LocationOf(vec.index().id());
  MachineId victim = kInvalidMachineId;
  ProcletId victim_shard = kInvalidProcletId;
  f.sim.BlockOn(vec.router().Refresh(f.rt->CtxOn(0)));
  for (const ShardInfo& shard : vec.router().cached_shards()) {
    const MachineId home = f.rt->LocationOf(shard.proclet);
    if (home != index_home) {
      victim = home;
      victim_shard = shard.proclet;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidMachineId);
  f.faults->FailNow(victim);
  ASSERT_TRUE(f.rt->IsLost(victim_shard));

  // Reads of every index are either served by a surviving shard or answered
  // DataLoss — never a hang, never an abort.
  int64_t served = 0;
  int64_t data_loss = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    Result<int64_t> r = f.sim.BlockOn(vec.Get(f.rt->CtxOn(0), i));
    if (r.ok()) {
      EXPECT_EQ(*r, static_cast<int64_t>(i));
      ++served;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
      ++data_loss;
    }
  }
  EXPECT_GT(served, 0);
  EXPECT_GT(data_loss, 0);
}

TEST(FailureTest, ShardedVectorSurfacesLostIndexAsDataLoss) {
  Fixture f;
  // Best-fit avoids the pre-charged controller: the index lands on m1 and
  // the tail on m2.
  ASSERT_TRUE(f.cluster.machine(0).memory().TryCharge(1_GiB));
  ShardedVector<int64_t> vec =
      *f.sim.BlockOn(ShardedVector<int64_t>::Create(f.rt->CtxOn(0)));
  ShardedVector<int64_t> cold = vec;  // its router cache is still empty
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(f.sim.BlockOn(vec.PushBack(f.rt->CtxOn(0), i)).ok());
  }
  ASSERT_EQ(f.rt->LocationOf(vec.index().id()), 1u);
  ASSERT_EQ(vec.router().cached_shards().size(), 1u);
  ASSERT_EQ(f.rt->LocationOf(vec.router().cached_shards().front().proclet), 2u);
  f.faults->FailNow(1);

  // A lost index is not the end of the vector: every op must say DataLoss.
  Result<int64_t> got = f.sim.BlockOn(cold.Get(f.rt->CtxOn(0), 3));
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  Status set = f.sim.BlockOn(cold.Set(f.rt->CtxOn(0), 3, 42));
  EXPECT_EQ(set.code(), StatusCode::kDataLoss);
  Result<std::vector<int64_t>> range =
      f.sim.BlockOn(cold.GetRange(f.rt->CtxOn(0), 0, 5));
  EXPECT_EQ(range.status().code(), StatusCode::kDataLoss);
  Result<uint64_t> size = f.sim.BlockOn(cold.Size(f.rt->CtxOn(0)));
  EXPECT_EQ(size.status().code(), StatusCode::kDataLoss);
}

TEST(FailureTest, ParallelForEachReportsElementsItCouldNotRead) {
  Fixture f(4);
  ShardedVector<int64_t>::Options options;
  options.max_shard_bytes = 256;  // 200 elements in 7 shards
  ShardedVector<int64_t> vec =
      *f.sim.BlockOn(ShardedVector<int64_t>::Create(f.rt->CtxOn(0), options));
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(f.sim.BlockOn(vec.PushBack(f.rt->CtxOn(0), i)).ok());
  }
  DistPool::Options pool_options;
  pool_options.initial_proclets = 2;
  DistPool pool =
      *f.sim.BlockOn(DistPool::Create(f.rt->CtxOn(0), pool_options));

  // m2 holds sealed shards only: not the index, the tail or a pool member.
  constexpr MachineId kVictim = 2;
  f.sim.BlockOn(vec.router().Refresh(f.rt->CtxOn(0)));
  ASSERT_EQ(vec.router().cached_shards().size(), 7u);
  ASSERT_NE(f.rt->LocationOf(vec.index().id()), kVictim);
  ASSERT_NE(f.rt->LocationOf(vec.router().cached_shards().back().proclet),
            kVictim);
  for (const auto& member : pool.members()) {
    ASSERT_NE(member.Location(), kVictim);
  }
  int64_t sealed_on_victim = 0;
  for (const ShardInfo& shard : vec.router().cached_shards()) {
    sealed_on_victim += f.rt->LocationOf(shard.proclet) == kVictim ? 1 : 0;
  }
  ASSERT_GT(sealed_on_victim, 0);
  f.faults->FailNow(kVictim);

  // Chunks of 64 fail on the stream's first read; chunks of 16 get two
  // reads through and fail on a prefetch.
  for (uint64_t chunk : {64, 16}) {
    ParallelOptions parallel;
    parallel.chunk_elems = chunk;
    auto visited = std::make_shared<int64_t>(0);
    Status status = f.sim.BlockOn(ParallelForEach(
        f.rt->CtxOn(0), pool, vec,
        [visited](Ctx, uint64_t, int64_t) -> Task<> {
          ++*visited;
          co_return;
        },
        parallel));
    EXPECT_LT(*visited, 200);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  }
  f.sim.BlockOn(pool.Shutdown(f.rt->CtxOn(0)));
}

TEST(FailureTest, ShardedMapSurfacesDataLoss) {
  Fixture f(2);
  ShardedMap<int64_t, int64_t> map =
      *f.sim.BlockOn(ShardedMap<int64_t, int64_t>::Create(f.rt->CtxOn(0)));
  for (int64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(f.sim.BlockOn(map.Put(f.rt->CtxOn(0), k, k * k)).ok());
  }
  // The single shard covers the whole space; failing its host loses all keys.
  f.sim.BlockOn(map.router().Refresh(f.rt->CtxOn(0)));
  ASSERT_EQ(map.router().cached_shards().size(), 1u);
  const MachineId shard_home =
      f.rt->LocationOf(map.router().cached_shards().front().proclet);
  const MachineId index_home = f.rt->LocationOf(map.index().id());
  if (shard_home == index_home) {
    GTEST_SKIP() << "shard and index share a machine; covered by vector test";
  }
  f.faults->FailNow(shard_home);
  Result<int64_t> r = f.sim.BlockOn(map.Get(f.rt->CtxOn(0), int64_t{7}));
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace quicksand
