// Property: overload rejection composes with epoch/request-id fencing into
// a clean refusal. A request that was shed by admission control or rejected
// because its deadline had already passed NEVER commits on the shard — the
// FenceGuard never witnesses its request id, the key is untouched — and the
// SAME request id retried after the overload clears applies exactly once
// (the dedup machinery is oblivious to how many rejections preceded the
// successful attempt).
//
// Every property holds for both ways of calling a proclet: Ref::Call, which
// throws a refusal (InvocationSheddedError, DeadlineExpiredError), and
// Ref::TryCall, which returns it as a ResourceExhausted/DeadlineExceeded
// Result. The two forms share one invocation hop, so they must refuse
// identically: the same classification, the same counters, the same sim
// time, the same trace.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "quicksand/common/bytes.h"
#include "quicksand/common/random.h"
#include "quicksand/overload/admission.h"
#include "quicksand/proclet/fenced_kv_proclet.h"
#include "quicksand/trace/trace.h"

namespace quicksand {
namespace {

constexpr int kSeeds = 4;
constexpr int kRequests = 10;
constexpr int kMachines = 2;
constexpr MachineId kShardHost = 1;

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;
  std::unique_ptr<AdmissionController> admission;
  Tracer tracer{sim, kMachines};

  Fixture() {
    for (int i = 0; i < kMachines; ++i) {
      MachineSpec spec;
      spec.cores = 1;
      spec.memory_bytes = 2_GiB;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
    AdmissionOptions opt;
    opt.target = Duration::Micros(20);
    opt.interval = Duration::Micros(200);
    admission = std::make_unique<AdmissionController>(cluster, opt);
    rt->AttachAdmission(admission.get());
    rt->AttachTracer(&tracer);
  }

  // Stand a queue on the shard host and walk the controller through its
  // grace interval so the next admission decision there is a shed.
  void DriveIntoShedding() {
    for (int i = 0; i < 50; ++i) {
      sim.Spawn(cluster.machine(kShardHost).cpu().Run(Duration::Millis(1),
                                                      kPriorityNormal),
                "overload_" + std::to_string(i));
    }
    sim.RunFor(Duration::Micros(100));
    ASSERT_TRUE(admission->Admit(kShardHost, sim.Now()));  // grace
    sim.RunFor(Duration::Micros(300));
    ASSERT_FALSE(admission->Admit(kShardHost, sim.Now()));
    ASSERT_TRUE(admission->Overloaded(kShardHost));
  }
};

enum class Outcome { kApplied, kDuplicate, kFenced, kShed, kDeadline, kOther };

// How the client calls the shard.
enum class CallForm { kCall, kTryCall };

std::string CallFormName(const ::testing::TestParamInfo<CallForm>& info) {
  return info.param == CallForm::kCall ? "Call" : "TryCall";
}

auto PutFn(uint64_t epoch, uint64_t rid, uint64_t key, int64_t value) {
  return [epoch, rid, key, value](
             FencedKvProclet& p) -> Task<FencedKvProclet::PutResult> {
    co_return p.Put(epoch, rid, key, value);
  };
}

Outcome Classify(const FencedKvProclet::PutResult& result) {
  if (result.applied) {
    return Outcome::kApplied;
  }
  if (result.duplicate) {
    return Outcome::kDuplicate;
  }
  return result.fenced ? Outcome::kFenced : Outcome::kOther;
}

// Ref::Call: a refusal arrives as an exception.
Task<Outcome> TryPutByCall(Ref<FencedKvProclet> kv, Ctx ctx, uint64_t epoch,
                           uint64_t rid, uint64_t key, int64_t value) {
  Outcome outcome = Outcome::kOther;  // co_await is banned in catch handlers
  try {
    auto call = kv.Call(ctx, PutFn(epoch, rid, key, value));
    const FencedKvProclet::PutResult result = co_await std::move(call);
    outcome = Classify(result);
  } catch (const InvocationSheddedError&) {
    outcome = Outcome::kShed;
  } catch (const DeadlineExpiredError&) {
    outcome = Outcome::kDeadline;
  }
  co_return outcome;
}

// Ref::TryCall: a refusal arrives as a value; nothing here catches.
Task<Outcome> TryPutByTryCall(Ref<FencedKvProclet> kv, Ctx ctx, uint64_t epoch,
                              uint64_t rid, uint64_t key, int64_t value) {
  auto call = kv.TryCall(ctx, PutFn(epoch, rid, key, value));
  const Result<FencedKvProclet::PutResult> result = co_await std::move(call);
  if (result.ok()) {
    co_return Classify(*result);
  }
  co_return result.status().code() == StatusCode::kResourceExhausted
      ? Outcome::kShed
      : Outcome::kDeadline;
}

// One Put attempt under the given context; classifies how it ended.
Task<Outcome> TryPut(CallForm form, Ref<FencedKvProclet> kv, Ctx ctx,
                     uint64_t epoch, uint64_t rid, uint64_t key, int64_t value) {
  return form == CallForm::kCall
             ? TryPutByCall(kv, ctx, epoch, rid, key, value)
             : TryPutByTryCall(kv, ctx, epoch, rid, key, value);
}

// What one seed's scenario observed of its refusals, for comparing the
// call forms.
struct Refusals {
  std::vector<Outcome> outcomes;
  std::vector<SimTime> returned_at;
  int64_t shed = 0;
  int64_t deadline_rejected = 0;
  uint64_t trace_digest = 0;
};

// Fires kRequests puts into an overloaded shard (half of them with an
// expired deadline), checks that none commits, then retries each rid once
// the overload clears and checks that it applies exactly once.
void RunOverloadScenario(CallForm form, uint64_t seed, Refusals* seen) {
  Fixture f;
  Rng rng(seed);

  PlacementRequest req;
  req.heap_bytes = 1_MiB;
  req.pinned = kShardHost;
  Ref<FencedKvProclet> kv =
      *f.sim.BlockOn(f.rt->Create<FencedKvProclet>(f.rt->CtxOn(0), req));
  const uint64_t epoch = f.rt->EpochOf(kv.id());
  ASSERT_NE(epoch, 0u);

  f.DriveIntoShedding();
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  // Fire requests into the overload. Half carry an already-expired
  // deadline (rejected before admission is even consulted); the rest hit
  // the shedding controller. Every one must be refused.
  struct Rejected {
    uint64_t rid;
    uint64_t key;
    Outcome outcome;
  };
  std::vector<Rejected> rejected;
  for (int i = 0; i < kRequests; ++i) {
    const uint64_t rid = 100 + static_cast<uint64_t>(i);
    const uint64_t key = static_cast<uint64_t>(i);
    Ctx ctx = f.rt->CtxOn(0);
    const bool expired = rng.NextBool();
    if (expired) {
      ctx.trace = ctx.trace.WithDeadline(f.sim.Now() - Duration::Micros(1));
    } else {
      // Burn any pending CoDel probe so this arrival is deterministically
      // shed rather than admitted as the probe (probes are the controller
      // working as designed; here we want the rejection path).
      while (f.admission->Admit(kShardHost, f.sim.Now())) {
      }
    }
    const Outcome got = f.sim.BlockOn(
        TryPut(form, kv, ctx, epoch, rid, key, static_cast<int64_t>(i) * 7));
    EXPECT_EQ(got, expired ? Outcome::kDeadline : Outcome::kShed)
        << "seed " << seed << " i " << i;
    rejected.push_back({rid, key, got});
    seen->outcomes.push_back(got);
    seen->returned_at.push_back(f.sim.Now());
  }
  seen->shed = f.rt->stats().shed_invocations;
  seen->deadline_rejected = f.rt->stats().deadline_rejected_invocations;
  seen->trace_digest = f.tracer.Digest();
  EXPECT_EQ(seen->shed + seen->deadline_rejected,
            static_cast<int64_t>(rejected.size()));

  // The core property: none of the rejected rids reached the shard.
  FencedKvProclet* p = f.rt->UnsafeGet<FencedKvProclet>(kv.id());
  ASSERT_NE(p, nullptr);
  for (const Rejected& r : rejected) {
    EXPECT_FALSE(p->guard().Executed(r.rid))
        << "seed " << seed << " rid " << r.rid;
    EXPECT_EQ(p->ApplyCount(r.key), 0) << "seed " << seed << " key " << r.key;
    EXPECT_EQ(p->Get(r.key).status().code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(p->size(), 0u);

  // Overload clears (drain the queue; drop the controller out of the
  // path, as a client whose next attempt lands on a healthy machine).
  f.sim.RunFor(Duration::Millis(60));
  f.rt->AttachAdmission(nullptr);

  // Retrying the SAME rids now applies each write exactly once; a
  // duplicate retry after the ack dedups. Rejection left no trace that
  // could confuse the fencing machinery.
  for (const Rejected& r : rejected) {
    const Outcome first = f.sim.BlockOn(TryPut(
        form, kv, f.rt->CtxOn(0), epoch, r.rid, r.key,
        static_cast<int64_t>(r.key) * 7));
    EXPECT_EQ(first, Outcome::kApplied) << "seed " << seed;
    const Outcome second = f.sim.BlockOn(TryPut(
        form, kv, f.rt->CtxOn(0), epoch, r.rid, r.key,
        static_cast<int64_t>(r.key) * 7));
    EXPECT_EQ(second, Outcome::kDuplicate) << "seed " << seed;
    EXPECT_EQ(p->ApplyCount(r.key), 1) << "seed " << seed;
    EXPECT_TRUE(p->guard().Executed(r.rid));
  }
}

class OverloadNoCommitTest : public ::testing::TestWithParam<CallForm> {};

TEST_P(OverloadNoCommitTest, RejectedRequestsNeverCommitAndRetryExactlyOnce) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Refusals seen;
    RunOverloadScenario(GetParam(), seed, &seen);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
}

TEST_P(OverloadNoCommitTest, ExpiredDeadlineRejectsEvenOnAnIdleMachine) {
  // Deadline rejection is not an overload artifact: a dead-on-arrival
  // request is refused by a completely idle shard too, and commits nothing.
  Fixture f;
  PlacementRequest req;
  req.heap_bytes = 1_MiB;
  req.pinned = kShardHost;
  Ref<FencedKvProclet> kv =
      *f.sim.BlockOn(f.rt->Create<FencedKvProclet>(f.rt->CtxOn(0), req));
  const uint64_t epoch = f.rt->EpochOf(kv.id());

  f.sim.RunFor(Duration::Millis(1));
  Ctx ctx = f.rt->CtxOn(0);
  ctx.trace = ctx.trace.WithDeadline(f.sim.Now() - Duration::Nanos(1));
  EXPECT_EQ(f.sim.BlockOn(TryPut(GetParam(), kv, ctx, epoch, 1, 42, 7)),
            Outcome::kDeadline);
  FencedKvProclet* p = f.rt->UnsafeGet<FencedKvProclet>(kv.id());
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(p->guard().Executed(1));
  EXPECT_EQ(p->ApplyCount(42), 0);
  EXPECT_EQ(f.rt->stats().deadline_rejected_invocations, 1);
}

INSTANTIATE_TEST_SUITE_P(CallForms, OverloadNoCommitTest,
                         ::testing::Values(CallForm::kCall, CallForm::kTryCall),
                         CallFormName);

TEST(OverloadCallFormsTest, CallAndTryCallRefuseIdentically) {
  // One hop, two exits: for every seed both forms classify each request
  // alike, count alike, return each refusal at the same sim time, and
  // leave the same trace.
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Refusals thrown;
    Refusals returned;
    RunOverloadScenario(CallForm::kCall, seed, &thrown);
    RunOverloadScenario(CallForm::kTryCall, seed, &returned);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
    ASSERT_EQ(thrown.outcomes.size(), static_cast<size_t>(kRequests));
    EXPECT_EQ(thrown.outcomes, returned.outcomes) << "seed " << seed;
    EXPECT_EQ(thrown.returned_at, returned.returned_at) << "seed " << seed;
    EXPECT_EQ(thrown.shed, returned.shed) << "seed " << seed;
    EXPECT_EQ(thrown.deadline_rejected, returned.deadline_rejected)
        << "seed " << seed;
    EXPECT_EQ(thrown.trace_digest, returned.trace_digest) << "seed " << seed;
  }
}

}  // namespace
}  // namespace quicksand
