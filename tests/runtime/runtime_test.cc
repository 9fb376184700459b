#include "quicksand/runtime/runtime.h"

#include <gtest/gtest.h>

#include "quicksand/common/bytes.h"
#include "quicksand/proclet/compute_proclet.h"

namespace quicksand {
namespace {

// A minimal proclet for exercising the runtime machinery.
class CounterProclet : public ProcletBase {
 public:
  static constexpr ProcletKind kKind = ProcletKind::kMemory;

  explicit CounterProclet(const ProcletInit& init) : ProcletBase(init) {}

  Task<int64_t> Add(int64_t x) {
    value_ += x;
    co_return value_;
  }

  Task<int64_t> SlowAdd(Simulator& sim, int64_t x, Duration delay) {
    co_await sim.Sleep(delay);
    value_ += x;
    co_return value_;
  }

  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

struct RuntimeFixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  explicit RuntimeFixture(int machines = 2, int64_t mem = 4_GiB) {
    for (int i = 0; i < machines; ++i) {
      MachineSpec spec;
      spec.cores = 4;
      spec.memory_bytes = mem;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
  }

  Task<Ref<CounterProclet>> MakeCounter(Ctx ctx, int64_t heap = 1_MiB,
                                        std::optional<MachineId> pin = {}) {
    PlacementRequest req;
    req.heap_bytes = heap;
    req.pinned = pin;
    Result<Ref<CounterProclet>> ref = co_await rt->Create<CounterProclet>(ctx, req);
    co_return *ref;
  }
};

TEST(RuntimeTest, CreateChargesHostMemory) {
  RuntimeFixture f;
  const Ctx ctx = f.rt->CtxOn(0);
  Ref<CounterProclet> ref =
      f.sim.BlockOn(f.MakeCounter(ctx, 100_MiB, MachineId{1}));
  EXPECT_TRUE(static_cast<bool>(ref));
  EXPECT_EQ(ref.Location(), 1u);
  EXPECT_EQ(f.cluster.machine(1).memory().used(), 100_MiB);
  EXPECT_EQ(f.cluster.machine(0).memory().used(), 0);
  EXPECT_EQ(f.rt->stats().creations, 1);
}

TEST(RuntimeTest, BestFitPlacesMemoryProcletOnEmptiestMachine) {
  RuntimeFixture f(3);
  // Pre-load machine 0 and 2.
  EXPECT_TRUE(f.cluster.machine(0).memory().TryCharge(2_GiB));
  EXPECT_TRUE(f.cluster.machine(2).memory().TryCharge(1_GiB));
  const Ctx ctx = f.rt->CtxOn(0);
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(ctx, 1_MiB));
  EXPECT_EQ(ref.Location(), 1u);
}

TEST(RuntimeTest, CreateFailsWhenNothingFits) {
  RuntimeFixture f(2, 1_GiB);
  const Ctx ctx = f.rt->CtxOn(0);
  PlacementRequest req;
  req.heap_bytes = 2_GiB;
  auto result = f.sim.BlockOn(f.rt->Create<CounterProclet>(ctx, req));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

Task<int64_t> CallAdd(Ref<CounterProclet> ref, Ctx ctx, int64_t x) {
  co_return co_await ref.Call(
      ctx, [x](CounterProclet& p) -> Task<int64_t> { return p.Add(x); });
}

TEST(RuntimeTest, LocalInvocationIsFree) {
  RuntimeFixture f;
  const Ctx ctx = f.rt->CtxOn(0);
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(ctx, 1_MiB, MachineId{0}));
  const SimTime before = f.sim.Now();
  const int64_t v = f.sim.BlockOn(CallAdd(ref, ctx, 5));
  EXPECT_EQ(v, 5);
  EXPECT_EQ(f.sim.Now(), before);  // no wire crossing, no modeled cost
  EXPECT_EQ(f.rt->stats().local_invocations, 1);
  EXPECT_EQ(f.rt->stats().remote_invocations, 0);
}

TEST(RuntimeTest, RemoteInvocationPaysRpcCosts) {
  RuntimeFixture f;
  const Ctx ctx = f.rt->CtxOn(0);
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(ctx, 1_MiB, MachineId{1}));
  const SimTime before = f.sim.Now();
  const int64_t v = f.sim.BlockOn(CallAdd(ref, ctx, 7));
  EXPECT_EQ(v, 7);
  // At least a round trip: 2 x (1us + 5us).
  EXPECT_GE(f.sim.Now() - before, 12_us);
  EXPECT_EQ(f.rt->stats().remote_invocations, 1);
}

TEST(RuntimeTest, InvocationsSeeSharedState) {
  RuntimeFixture f;
  const Ctx ctx = f.rt->CtxOn(0);
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(ctx));
  EXPECT_EQ(f.sim.BlockOn(CallAdd(ref, ctx, 1)), 1);
  EXPECT_EQ(f.sim.BlockOn(CallAdd(ref, ctx, 2)), 3);
  EXPECT_EQ(f.sim.BlockOn(CallAdd(ref, ctx, 3)), 6);
}

TEST(RuntimeTest, MigrationMovesMemoryCharge) {
  RuntimeFixture f;
  const Ctx ctx = f.rt->CtxOn(0);
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(ctx, 64_MiB, MachineId{0}));
  EXPECT_EQ(f.cluster.machine(0).memory().used(), 64_MiB);
  const Status s = f.sim.BlockOn(f.rt->Migrate(ref.id(), 1));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(ref.Location(), 1u);
  EXPECT_EQ(f.cluster.machine(0).memory().used(), 0);
  EXPECT_EQ(f.cluster.machine(1).memory().used(), 64_MiB);
  EXPECT_EQ(f.rt->stats().migrations, 1);
}

TEST(RuntimeTest, SmallProcletMigratesSubMillisecond) {
  RuntimeFixture f;
  const Ctx ctx = f.rt->CtxOn(0);
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(ctx, 64_KiB, MachineId{0}));
  const SimTime before = f.sim.Now();
  EXPECT_TRUE(f.sim.BlockOn(f.rt->Migrate(ref.id(), 1)).ok());
  EXPECT_LT(f.sim.Now() - before, 1_ms);  // the Fig. 1 property
}

TEST(RuntimeTest, TenMiBProcletMigratesInAFewMilliseconds) {
  RuntimeFixture f;
  const Ctx ctx = f.rt->CtxOn(0);
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(ctx, 10_MiB, MachineId{0}));
  const SimTime before = f.sim.Now();
  EXPECT_TRUE(f.sim.BlockOn(f.rt->Migrate(ref.id(), 1)).ok());
  const Duration took = f.sim.Now() - before;
  EXPECT_GT(took, 500_us);  // dominated by the 10 MiB wire copy
  EXPECT_LT(took, 5_ms);    // "a few milliseconds" (§2)
}

TEST(RuntimeTest, MigrateToSameMachineIsNoop) {
  RuntimeFixture f;
  const Ctx ctx = f.rt->CtxOn(0);
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(ctx, 1_MiB, MachineId{0}));
  EXPECT_TRUE(f.sim.BlockOn(f.rt->Migrate(ref.id(), 0)).ok());
  EXPECT_EQ(f.rt->stats().migrations, 0);
}

TEST(RuntimeTest, MigrationFailsWhenDestinationFull) {
  RuntimeFixture f(2, 1_GiB);
  const Ctx ctx = f.rt->CtxOn(0);
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(ctx, 512_MiB, MachineId{0}));
  EXPECT_TRUE(f.cluster.machine(1).memory().TryCharge(900_MiB));
  const Status s = f.sim.BlockOn(f.rt->Migrate(ref.id(), 1));
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ref.Location(), 0u);  // unchanged
  EXPECT_EQ(f.rt->stats().failed_migrations, 1);
  // Proclet still usable.
  EXPECT_EQ(f.sim.BlockOn(CallAdd(ref, ctx, 2)), 2);
}

Task<> MigrateConcurrently(RuntimeFixture& f, Ref<CounterProclet> ref,
                           std::vector<int64_t>& results) {
  // Start a slow call, then migrate mid-call, then call again.
  Fiber slow = f.sim.Spawn(
      [](RuntimeFixture* fx, Ref<CounterProclet> r,
         std::vector<int64_t>* out) -> Task<> {
        const Ctx ctx = fx->rt->CtxOn(0);
        const int64_t v = co_await r.Call(
            ctx, [fx](CounterProclet& p) -> Task<int64_t> {
              return p.SlowAdd(fx->sim, 1, 5_ms);
            });
        out->push_back(v);
      }(&f, ref, &results),
      "slow_caller");
  co_await f.sim.Sleep(1_ms);  // let the slow call get in flight
  const Status s = co_await f.rt->Migrate(ref.id(), 1);
  EXPECT_TRUE(s.ok());
  results.push_back(-1);  // marker: migration finished
  co_await slow.Join();
}

TEST(RuntimeTest, MigrationDrainsInFlightCalls) {
  RuntimeFixture f;
  const Ctx ctx = f.rt->CtxOn(0);
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(ctx, 1_MiB, MachineId{0}));
  std::vector<int64_t> results;
  f.sim.BlockOn(MigrateConcurrently(f, ref, results));
  // The in-flight call completed (value 1) before migration finished (-1).
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], 1);
  EXPECT_EQ(results[1], -1);
  EXPECT_EQ(ref.Location(), 1u);
}

Task<> CallDuringMigration(RuntimeFixture& f, Ref<CounterProclet> ref,
                           SimTime& call_done, Status& mig_status) {
  // Launch migration of a large proclet, then call while it is in flight.
  Fiber mig = f.sim.Spawn(
      [](RuntimeFixture* fx, Ref<CounterProclet> r, Status* out) -> Task<> {
        *out = co_await fx->rt->Migrate(r.id(), 1);
      }(&f, ref, &mig_status),
      "migrator");
  co_await f.sim.Sleep(100_us);  // migration is now copying the heap
  const Ctx ctx = f.rt->CtxOn(0);
  (void)co_await CallAdd(ref, ctx, 1);
  call_done = f.sim.Now();
  co_await mig.Join();
}

TEST(RuntimeTest, CallsBlockDuringMigrationThenSucceed) {
  RuntimeFixture f;
  const Ctx ctx = f.rt->CtxOn(0);
  // 32 MiB: migration takes ~2.9ms, so the call at t+100us must wait.
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(ctx, 32_MiB, MachineId{0}));
  SimTime call_done;
  Status mig_status;
  const SimTime start = f.sim.Now();
  f.sim.BlockOn(CallDuringMigration(f, ref, call_done, mig_status));
  EXPECT_TRUE(mig_status.ok());
  EXPECT_GT(call_done - start, 2_ms);  // blocked until migration completed
  EXPECT_EQ(ref.Location(), 1u);
}

TEST(RuntimeTest, StaleCacheBouncesAndRecovers) {
  RuntimeFixture f(3);
  const Ctx ctx2 = f.rt->CtxOn(2);
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(ctx2, 1_MiB, MachineId{0}));
  // Prime machine 2's cache with location 0.
  EXPECT_EQ(f.sim.BlockOn(CallAdd(ref, ctx2, 1)), 1);
  // Move the proclet; machine 2's cache is now stale.
  EXPECT_TRUE(f.sim.BlockOn(f.rt->Migrate(ref.id(), 1)).ok());
  EXPECT_EQ(f.sim.BlockOn(CallAdd(ref, ctx2, 1)), 2);
  EXPECT_GE(f.rt->stats().bounces, 1);
}

TEST(RuntimeTest, DestroyReleasesMemoryAndFailsFutureCalls) {
  RuntimeFixture f;
  const Ctx ctx = f.rt->CtxOn(0);
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(ctx, 50_MiB, MachineId{1}));
  EXPECT_EQ(f.cluster.machine(1).memory().used(), 50_MiB);
  EXPECT_TRUE(f.sim.BlockOn(f.rt->Destroy(ctx, ref.id())).ok());
  EXPECT_EQ(f.cluster.machine(1).memory().used(), 0);
  EXPECT_EQ(f.rt->LocationOf(ref.id()), kInvalidMachineId);

  bool threw = false;
  f.sim.BlockOn([](RuntimeFixture* fx, Ref<CounterProclet> r, bool* out) -> Task<> {
    try {
      (void)co_await CallAdd(r, fx->rt->CtxOn(0), 1);
    } catch (const ProcletGoneError&) {
      *out = true;
    }
  }(&f, ref, &threw));
  EXPECT_TRUE(threw);
}

TEST(RuntimeTest, DestroyIsIdempotentish) {
  RuntimeFixture f;
  const Ctx ctx = f.rt->CtxOn(0);
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(ctx));
  EXPECT_TRUE(f.sim.BlockOn(f.rt->Destroy(ctx, ref.id())).ok());
  EXPECT_EQ(f.sim.BlockOn(f.rt->Destroy(ctx, ref.id())).code(), StatusCode::kNotFound);
}

TEST(RuntimeTest, MaintenanceBlocksCallsUntilEnd) {
  RuntimeFixture f;
  const Ctx ctx = f.rt->CtxOn(0);
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(ctx, 1_MiB, MachineId{0}));
  EXPECT_TRUE(f.sim.BlockOn(f.rt->BeginMaintenance(ref.id())).ok());

  SimTime call_done = SimTime::Max();
  f.sim.Spawn([](RuntimeFixture* fx, Ref<CounterProclet> r, SimTime* out) -> Task<> {
    (void)co_await CallAdd(r, fx->rt->CtxOn(0), 1);
    *out = fx->sim.Now();
  }(&f, ref, &call_done),
              "blocked_caller");
  f.sim.RunUntil(f.sim.Now() + 10_ms);
  EXPECT_EQ(call_done, SimTime::Max());  // still gated

  // Exclusive access is usable during maintenance.
  auto* p = f.rt->UnsafeGet<CounterProclet>(ref.id());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->value(), 0);

  f.rt->EndMaintenance(ref.id());
  f.sim.RunUntilIdle();
  EXPECT_NE(call_done, SimTime::Max());
}

TEST(RuntimeTest, ConcurrentMaintenanceIsRejected) {
  RuntimeFixture f;
  const Ctx ctx = f.rt->CtxOn(0);
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(ctx));
  EXPECT_TRUE(f.sim.BlockOn(f.rt->BeginMaintenance(ref.id())).ok());
  EXPECT_EQ(f.sim.BlockOn(f.rt->BeginMaintenance(ref.id())).code(),
            StatusCode::kAborted);
  EXPECT_EQ(f.sim.BlockOn(f.rt->Migrate(ref.id(), 1)).code(), StatusCode::kAborted);
  f.rt->EndMaintenance(ref.id());
}

TEST(RuntimeTest, AffinityTracksRemoteTrafficFromProclets) {
  RuntimeFixture f;
  Ctx proclet_ctx = f.rt->CtxOn(0);
  proclet_ctx.caller_proclet = 777;  // pretend we run inside proclet 777
  Ref<CounterProclet> ref = f.sim.BlockOn(f.MakeCounter(f.rt->CtxOn(0), 1_MiB,
                                                        MachineId{1}));
  (void)f.sim.BlockOn(CallAdd(ref, proclet_ctx, 1));
  EXPECT_GT(f.rt->AffinityBytes(777, ref.id()), 0);
  EXPECT_GT(f.rt->AffinityBytes(ref.id(), 777), 0);
  EXPECT_EQ(f.rt->AffinityBytes(777, 12345), 0);
}

// ProcletsOn and LiveProclets stay ascending and equal to the live set across
// creation, destruction, a machine loss and the restore of a lower id.
TEST(RuntimeTest, ProcletsOnListsByMachine) {
  RuntimeFixture f(3);
  const Ctx ctx = f.rt->CtxOn(0);
  auto live_ids = [&f] {
    std::vector<ProcletId> ids;
    for (const ProcletBase* p : f.rt->LiveProclets()) {
      ids.push_back(p->id());
    }
    return ids;
  };
  auto make_on = [&](MachineId m) {
    return f.sim.BlockOn(f.MakeCounter(ctx, 1_MiB, m)).id();
  };
  const ProcletId a = make_on(0);
  const ProcletId b = make_on(1);
  const ProcletId c = make_on(1);
  const ProcletId d = make_on(2);
  const ProcletId e = make_on(0);
  EXPECT_EQ(f.rt->ProcletsOn(0), (std::vector<ProcletId>{a, e}));
  EXPECT_EQ(f.rt->ProcletsOn(1), (std::vector<ProcletId>{b, c}));
  EXPECT_EQ(f.rt->ProcletsOn(2), (std::vector<ProcletId>{d}));
  EXPECT_EQ(live_ids(), (std::vector<ProcletId>{a, b, c, d, e}));

  ASSERT_TRUE(f.sim.BlockOn(f.rt->Destroy(ctx, c)).ok());
  EXPECT_EQ(f.rt->ProcletsOn(1), (std::vector<ProcletId>{b}));
  EXPECT_EQ(live_ids(), (std::vector<ProcletId>{a, b, d, e}));

  f.cluster.machine(1).Fail();
  f.rt->HandleMachineFailure(1);
  ASSERT_TRUE(f.rt->IsLost(b));
  EXPECT_TRUE(f.rt->ProcletsOn(1).empty());
  EXPECT_EQ(live_ids(), (std::vector<ProcletId>{a, d, e}));

  const ProcletId g = make_on(2);
  EXPECT_EQ(live_ids(), (std::vector<ProcletId>{a, d, e, g}));

  // The restore brings back an id below three live ones.
  auto restored = std::make_unique<CounterProclet>(
      ProcletInit{f.rt.get(), &f.sim, b, CounterProclet::kKind, 2});
  ASSERT_TRUE(f.rt->AdoptRestored(b, std::move(restored), 2).ok());
  EXPECT_EQ(f.rt->ProcletsOn(2), (std::vector<ProcletId>{b, d, g}));
  EXPECT_EQ(live_ids(), (std::vector<ProcletId>{a, b, d, e, g}));
  EXPECT_EQ(f.rt->proclet_count(), 5u);
}

}  // namespace
}  // namespace quicksand
