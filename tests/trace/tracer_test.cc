// Core tracer behavior: stamping, span pairing, ring wrap-around, digest
// stability, and the TraceQuery oracle's causality primitives.

#include "quicksand/trace/trace.h"

#include <gtest/gtest.h>

#include <cstring>

#include "quicksand/sim/simulator.h"
#include "quicksand/trace/query.h"

namespace quicksand {
namespace {

TEST(TracerTest, InstantEventsAreStampedAndTotallyOrdered) {
  Simulator sim;
  Tracer tracer(sim, 2);

  tracer.Instant(TraceContext{}, 0, TraceOp::kSpawn, /*proclet=*/7);
  sim.RunFor(1_ms);
  tracer.Instant(TraceContext{}, 1, TraceOp::kCrash);

  EXPECT_EQ(tracer.recorded(), 2);
  const std::vector<TraceEvent> all = tracer.Snapshot();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].op, TraceOp::kSpawn);
  EXPECT_EQ(all[0].proclet, 7u);
  EXPECT_EQ(all[0].machine, 0u);
  EXPECT_EQ(all[1].op, TraceOp::kCrash);
  EXPECT_EQ(all[1].time - all[0].time, 1_ms);
  EXPECT_LT(all[0].seq, all[1].seq);
}

TEST(TracerTest, SpanBeginEndPairAndQueryReconstructsDuration) {
  Simulator sim;
  Tracer tracer(sim, 2);

  const TraceContext span = tracer.BeginSpan(TraceContext{}, 0,
                                             TraceOp::kMigrate, /*proclet=*/3);
  EXPECT_TRUE(span.valid());
  sim.RunFor(2_ms);
  tracer.EndSpan(span, 0, "ok", /*arg=*/42);

  TraceQuery query = TraceQuery::FromTracer(tracer);
  const std::vector<TraceSpan> spans = query.SpansOf(TraceOp::kMigrate);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].ended);
  EXPECT_EQ(spans[0].duration(), 2_ms);
  EXPECT_EQ(spans[0].proclet, 3u);
  EXPECT_EQ(spans[0].end_arg, 42);
  EXPECT_STREQ(spans[0].detail, "ok");
  EXPECT_EQ(query.SpansOfProclet(3).size(), 1u);
}

TEST(TracerTest, ChildSpansOnOtherMachinesFormOneCausalTree) {
  Simulator sim;
  Tracer tracer(sim, 3);

  const TraceContext root = tracer.BeginSpan(TraceContext{}, 0, TraceOp::kRecover);
  const TraceContext child_a = tracer.BeginSpan(root, 1, TraceOp::kInvoke);
  tracer.Instant(child_a, 2, TraceOp::kRpcRecv);
  tracer.EndSpan(child_a, 1);
  const TraceContext child_b = tracer.BeginSpan(root, 2, TraceOp::kMigrate);
  tracer.EndSpan(child_b, 2);
  tracer.EndSpan(root, 0);

  TraceQuery query = TraceQuery::FromTracer(tracer);
  ASSERT_EQ(query.TraceIds().size(), 1u);
  const TraceId id = query.TraceIds().front();
  EXPECT_EQ(id, root.trace_id);
  EXPECT_TRUE(query.SingleCausalTree(id));
  EXPECT_EQ(query.MachinesInTrace(id).size(), 3u);

  // Two separate roots are two trees, each singly rooted.
  const TraceContext other = tracer.BeginSpan(TraceContext{}, 0, TraceOp::kEvacuate);
  tracer.EndSpan(other, 0);
  query = TraceQuery::FromTracer(tracer);
  EXPECT_EQ(query.TraceIds().size(), 2u);
  EXPECT_TRUE(query.SingleCausalTree(other.trace_id));
}

TEST(TracerTest, RingWrapKeepsNewestAndCountsDropped) {
  Simulator sim;
  TracerOptions options;
  options.ring_capacity = 4;
  Tracer tracer(sim, 1, options);

  for (int i = 0; i < 10; ++i) {
    tracer.Instant(TraceContext{}, 0, TraceOp::kSpawn, /*proclet=*/0,
                   /*arg=*/i);
  }
  EXPECT_EQ(tracer.recorded(), 10);
  EXPECT_EQ(tracer.dropped(0), 6);
  const std::vector<TraceEvent> kept = tracer.MachineEvents(0);
  ASSERT_EQ(kept.size(), 4u);
  // Oldest-first: 6, 7, 8, 9.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(kept[static_cast<size_t>(i)].arg, 6 + i);
  }
  const std::vector<TraceEvent> last2 = tracer.LastEvents(0, 2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0].arg, 8);
  EXPECT_EQ(last2[1].arg, 9);
}

TEST(TracerTest, DigestIsReproducibleAndContentSensitive) {
  Simulator sim_a;
  Tracer a(sim_a, 2);
  Simulator sim_b;
  Tracer b(sim_b, 2);

  for (Tracer* t : {&a, &b}) {
    const TraceContext span = t->BeginSpan(TraceContext{}, 0, TraceOp::kInvoke, 5);
    t->Instant(span, 1, TraceOp::kRpcSend, 0, 64);
    t->EndSpan(span, 0, "ok");
  }
  EXPECT_EQ(a.Digest(), b.Digest());

  // One more event — or a different detail string — changes the digest.
  const uint64_t before = a.Digest();
  a.Instant(TraceContext{}, 0, TraceOp::kCommit, 5, 1, "committed");
  EXPECT_NE(a.Digest(), before);

  Simulator sim_c;
  Tracer c(sim_c, 2);
  const TraceContext span = c.BeginSpan(TraceContext{}, 0, TraceOp::kInvoke, 5);
  c.Instant(span, 1, TraceOp::kRpcSend, 0, 64);
  c.EndSpan(span, 0, "aborted");  // differs only in the detail string
  EXPECT_NE(c.Digest(), b.Digest());
}

TEST(TracerTest, SpanGuardEndsAbortOnUnwindAndOkWhenTold) {
  Simulator sim;
  Tracer tracer(sim, 1);

  {
    SpanGuard guard(&tracer,
                    tracer.BeginSpan(TraceContext{}, 0, TraceOp::kInvoke), 0);
    // No End(): destruction plays the exception-unwind path.
  }
  {
    SpanGuard guard(&tracer,
                    tracer.BeginSpan(TraceContext{}, 0, TraceOp::kInvoke), 0);
    guard.End("ok");
  }

  TraceQuery query = TraceQuery::FromTracer(tracer);
  const std::vector<TraceSpan> spans = query.SpansOf(TraceOp::kInvoke);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].detail, "abort");
  EXPECT_STREQ(spans[1].detail, "ok");
}

TEST(TracerTest, RecordingNeverAdvancesSimTime) {
  Simulator sim;
  Tracer tracer(sim, 1);
  const SimTime before = sim.Now();
  for (int i = 0; i < 1000; ++i) {
    const TraceContext span =
        tracer.BeginSpan(TraceContext{}, 0, TraceOp::kInvoke);
    tracer.Instant(span, 0, TraceOp::kRpcSend);
    tracer.EndSpan(span, 0);
  }
  EXPECT_EQ(sim.Now(), before);
}

TEST(TracerTest, HappensBeforeFollowsTimeThenSeq) {
  Simulator sim;
  Tracer tracer(sim, 1);

  const TraceContext first = tracer.BeginSpan(TraceContext{}, 0, TraceOp::kMigrate);
  sim.RunFor(1_ms);
  tracer.EndSpan(first, 0);
  const TraceContext second = tracer.BeginSpan(TraceContext{}, 0, TraceOp::kMigrate);
  tracer.EndSpan(second, 0);

  TraceQuery query = TraceQuery::FromTracer(tracer);
  const std::vector<TraceSpan> spans = query.SpansOf(TraceOp::kMigrate);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(query.HappensBefore(spans[0], spans[1]));
  EXPECT_FALSE(query.HappensBefore(spans[1], spans[0]));

  const LatencyHistogram durations = query.DurationsOf(TraceOp::kMigrate);
  EXPECT_EQ(durations.count(), 2);
  EXPECT_EQ(durations.Max(), 1_ms);
}

}  // namespace
}  // namespace quicksand
