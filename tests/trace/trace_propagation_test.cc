// TraceContext propagation across the layers that forward it: proclet
// invocation and epoch-fenced migration. The load-bearing assertion: a
// stale-epoch request shows up in the trace as an `abort`, and NEVER as a
// `commit`.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "quicksand/common/bytes.h"
#include "quicksand/proclet/fenced_kv_proclet.h"
#include "quicksand/trace/query.h"

namespace quicksand {
namespace {

struct RuntimeFixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;
  std::unique_ptr<Tracer> tracer;

  explicit RuntimeFixture(int machines = 4, bool traced = true) {
    for (int i = 0; i < machines; ++i) {
      MachineSpec spec;
      spec.cores = 4;
      spec.memory_bytes = 2_GiB;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
    if (traced) {
      tracer = std::make_unique<Tracer>(sim, cluster.size());
      rt->AttachTracer(tracer.get());
    }
  }

  Ref<FencedKvProclet> MakeKv(MachineId where) {
    PlacementRequest req;
    req.heap_bytes = 1_MiB;
    req.pinned = where;
    return *sim.BlockOn(rt->Create<FencedKvProclet>(rt->CtxOn(0), req));
  }
};

Task<FencedKvProclet::PutResult> Put(Ref<FencedKvProclet> kv, Ctx ctx,
                                     uint64_t epoch, uint64_t rid,
                                     uint64_t key, int64_t value) {
  auto call = kv.Call(
      ctx, [epoch, rid, key, value](FencedKvProclet& p)
      -> Task<FencedKvProclet::PutResult> {
        co_return p.Put(epoch, rid, key, value);
      });
  co_return co_await std::move(call);
}

TEST(TracePropagationTest, MigrationSpanStitchesAcrossMachines) {
  RuntimeFixture f;
  Ref<FencedKvProclet> kv = f.MakeKv(1);
  ASSERT_TRUE(f.sim.BlockOn(f.rt->Migrate(kv.id(), 2)).ok());

  TraceQuery query = TraceQuery::FromTracer(*f.tracer);
  const std::vector<TraceSpan> migrations = query.SpansOf(TraceOp::kMigrate);
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_TRUE(migrations[0].ended);
  EXPECT_STREQ(migrations[0].detail, "ok");
  EXPECT_EQ(migrations[0].proclet, kv.id());
  EXPECT_TRUE(query.SingleCausalTree(migrations[0].trace_id));
}

TEST(TracePropagationTest, StaleEpochMigrationEndsFencedNotOk) {
  RuntimeFixture f;
  Ref<FencedKvProclet> kv = f.MakeKv(1);

  const uint64_t stale = f.rt->EpochOf(kv.id());
  ASSERT_TRUE(f.sim.BlockOn(f.rt->Migrate(kv.id(), 2, stale)).ok());
  const Status replay = f.sim.BlockOn(f.rt->Migrate(kv.id(), 3, stale));
  ASSERT_EQ(replay.code(), StatusCode::kAborted);

  TraceQuery query = TraceQuery::FromTracer(*f.tracer);
  const std::vector<TraceSpan> migrations = query.SpansOf(TraceOp::kMigrate);
  ASSERT_EQ(migrations.size(), 2u);
  EXPECT_STREQ(migrations[0].detail, "ok");
  EXPECT_STREQ(migrations[1].detail, "ABORTED");

  // The fence rejection itself is attributed: a `fence` instant carrying the
  // stale epoch and the current epoch it lost to.
  const std::vector<TraceEvent> fences = query.Instants(TraceOp::kFence);
  ASSERT_EQ(fences.size(), 1u);
  EXPECT_EQ(fences[0].proclet, kv.id());
  EXPECT_EQ(fences[0].epoch, stale);
  EXPECT_EQ(fences[0].arg, 2);  // the epoch that fenced it
  EXPECT_STREQ(fences[0].detail, "stale_epoch");
}

TEST(TracePropagationTest, StaleEpochWriteAppearsAsAbortNeverCommit) {
  RuntimeFixture f;
  Ref<FencedKvProclet> kv = f.MakeKv(1);
  Ctx ctx = f.rt->CtxOn(0);

  const uint64_t old_epoch = f.rt->EpochOf(kv.id());
  ASSERT_TRUE(f.sim.BlockOn(Put(kv, ctx, old_epoch, /*rid=*/1, 1, 10)).applied);
  ASSERT_TRUE(f.sim.BlockOn(f.rt->Migrate(kv.id(), 2)).ok());

  // A client that resolved before the migration retries with the old token.
  const FencedKvProclet::PutResult stale =
      f.sim.BlockOn(Put(kv, ctx, old_epoch, /*rid=*/2, 1, 99));
  ASSERT_TRUE(stale.fenced);

  TraceQuery query = TraceQuery::FromTracer(*f.tracer);
  const std::vector<TraceEvent> commits = query.Instants(TraceOp::kCommit);
  const std::vector<TraceEvent> aborts = query.Instants(TraceOp::kAbort);

  // Request 1 committed; request 2 aborted. No commit event may ever carry
  // the fenced request's id — fenced writes leave no commit in the record.
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(commits[0].proclet, kv.id());
  EXPECT_EQ(commits[0].arg, 1);
  bool fenced_abort_seen = false;
  for (const TraceEvent& abort : aborts) {
    EXPECT_NE(abort.arg, commits[0].arg);
    if (abort.arg == 2 && std::strcmp(abort.detail, "fenced") == 0) {
      fenced_abort_seen = true;
    }
  }
  EXPECT_TRUE(fenced_abort_seen);
  for (const TraceEvent& commit : commits) {
    EXPECT_NE(commit.arg, 2);
  }

  // The commit precedes the abort in the deterministic total order.
  EXPECT_TRUE(query.HappensBefore(commits[0], aborts.back()));
}

TEST(TracePropagationTest, InvokeSpansCarryOneTracePerCall) {
  RuntimeFixture f;
  Ref<FencedKvProclet> kv = f.MakeKv(1);
  Ctx ctx = f.rt->CtxOn(0);
  const uint64_t epoch = f.rt->EpochOf(kv.id());
  ASSERT_TRUE(f.sim.BlockOn(Put(kv, ctx, epoch, 1, 1, 10)).applied);
  ASSERT_TRUE(f.sim.BlockOn(Put(kv, ctx, epoch, 2, 2, 20)).applied);

  TraceQuery query = TraceQuery::FromTracer(*f.tracer);
  const std::vector<TraceSpan> invokes = query.SpansOf(TraceOp::kInvoke);
  ASSERT_EQ(invokes.size(), 2u);
  EXPECT_NE(invokes[0].trace_id, invokes[1].trace_id);
  for (const TraceSpan& invoke : invokes) {
    EXPECT_TRUE(invoke.ended);
    EXPECT_STREQ(invoke.detail, "ok");
    EXPECT_EQ(invoke.proclet, kv.id());
    EXPECT_TRUE(query.SingleCausalTree(invoke.trace_id));
  }
}

TEST(TracePropagationTest, TracingChangesNoSimTime) {
  auto scenario = [](RuntimeFixture& f) {
    Ref<FencedKvProclet> kv = f.MakeKv(1);
    Ctx ctx = f.rt->CtxOn(0);
    const uint64_t epoch = f.rt->EpochOf(kv.id());
    (void)f.sim.BlockOn(Put(kv, ctx, epoch, 1, 1, 10));
    (void)f.sim.BlockOn(f.rt->Migrate(kv.id(), 2));
    (void)f.sim.BlockOn(Put(kv, ctx, f.rt->EpochOf(kv.id()), 2, 2, 20));
    return f.sim.Now();
  };

  RuntimeFixture traced(4, /*traced=*/true);
  RuntimeFixture untraced(4, /*traced=*/false);
  const SimTime with = scenario(traced);
  const SimTime without = scenario(untraced);
  EXPECT_EQ(with, without);
  EXPECT_GT(traced.tracer->recorded(), 0);
}

TEST(TracePropagationTest, SameSeedRunsProduceIdenticalDigests) {
  auto run = [] {
    RuntimeFixture f;
    Ref<FencedKvProclet> kv = f.MakeKv(1);
    Ctx ctx = f.rt->CtxOn(0);
    const uint64_t epoch = f.rt->EpochOf(kv.id());
    (void)f.sim.BlockOn(Put(kv, ctx, epoch, 1, 1, 10));
    (void)f.sim.BlockOn(f.rt->Migrate(kv.id(), 2));
    return f.tracer->Digest();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace quicksand
