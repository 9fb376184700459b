#include "quicksand/autoscale/autoscaler.h"

#include <gtest/gtest.h>

#include "quicksand/cluster/fault_injector.h"
#include "quicksand/common/bytes.h"
#include "quicksand/durability/replication.h"
#include "quicksand/health/failure_detector.h"
#include "quicksand/serving/kv_frontend.h"
#include "quicksand/serving/workload.h"

namespace quicksand {
namespace {

ShardServingSample MakeSample(uint64_t proclet, MachineId machine,
                              int64_t arrivals, uint64_t begin = 0,
                              uint64_t end = UINT64_MAX) {
  ShardServingSample s;
  s.proclet = proclet;
  s.machine = machine;
  s.range_begin = begin;
  s.range_end = end;
  s.arrivals_total = arrivals;
  return s;
}

TEST(LoadStatsCollectorTest, DifferencesCumulativeCountersIntoRates) {
  LoadStatsCollector collector(/*alpha=*/1.0);  // no smoothing: exact rates
  const SimTime t0 = SimTime::FromNanos(0);
  const SimTime t1 = t0 + Duration::Millis(10);
  const SimTime t2 = t1 + Duration::Millis(10);

  collector.Observe(t0, {MakeSample(1, 0, 0), MakeSample(2, 1, 0)});
  EXPECT_DOUBLE_EQ(collector.shards()[0].rate_qps, 0.0);

  // 500 arrivals in 10ms at shard 1 -> 50k qps; shard 2 idle.
  collector.Observe(t1, {MakeSample(1, 0, 500), MakeSample(2, 1, 0)});
  EXPECT_NEAR(collector.shards()[0].rate_qps, 50000.0, 1.0);
  EXPECT_DOUBLE_EQ(collector.shards()[1].rate_qps, 0.0);
  EXPECT_NEAR(collector.MachineRate(0), 50000.0, 1.0);
  EXPECT_DOUBLE_EQ(collector.MachineRate(1), 0.0);

  // Shard 2 vanishes (merged away); shard 3 appears hot: its whole counter
  // is this period's delta, so it is visible immediately.
  collector.Observe(t2, {MakeSample(1, 0, 500), MakeSample(3, 1, 400)});
  ASSERT_EQ(collector.shards().size(), 2u);
  EXPECT_DOUBLE_EQ(collector.shards()[0].rate_qps, 0.0);
  EXPECT_NEAR(collector.shards()[1].rate_qps, 40000.0, 1.0);
}

TEST(SkewDetectorTest, HotNeedsAStreakUnlessNudged) {
  LoadStatsCollector collector(1.0);
  SkewDetectorOptions opt;
  opt.hot_factor = 2.0;
  opt.rate_floor_qps = 100.0;
  opt.hot_streak = 2;
  SkewDetector detector(opt);

  SimTime t = SimTime::FromNanos(0);
  int64_t hot_total = 0;
  auto observe = [&] {
    t = t + Duration::Millis(1);
    hot_total += 100;  // 100k qps at shard 1; the rest idle
    collector.Observe(t, {MakeSample(1, 1, hot_total, 0, 100),
                          MakeSample(2, 2, 0, 100, 200),
                          MakeSample(3, 3, 0, 200, 300),
                          MakeSample(4, 1, 0, 300, 400)});
  };

  observe();
  EXPECT_TRUE(detector.Update(collector).hot.empty());  // baseline: no rates
  observe();
  EXPECT_TRUE(detector.Update(collector).hot.empty());  // streak 1 of 2
  observe();
  const SkewVerdict v = detector.Update(collector);
  ASSERT_EQ(v.hot.size(), 1u);
  EXPECT_EQ(v.hot[0], 1u);

  // A nudge fast-tracks the top shard on the nudged machine: hot on the
  // very first tick of a fresh detector.
  SkewDetector nudged(opt);
  LoadStatsCollector fresh(1.0);
  fresh.Observe(SimTime::FromNanos(0), {MakeSample(1, 1, 0), MakeSample(2, 2, 0)});
  fresh.Observe(SimTime::FromNanos(0) + Duration::Millis(1),
                {MakeSample(1, 1, 200), MakeSample(2, 2, 0)});
  nudged.Nudge(1);
  const SkewVerdict nv = nudged.Update(fresh);
  ASSERT_EQ(nv.hot.size(), 1u);
  EXPECT_EQ(nv.hot[0], 1u);
  EXPECT_EQ(nudged.nudge_promotions(), 1);
}

TEST(ReshapePlannerTest, SplitsHotMigratesAtShardBudgetAndCoolsDown) {
  LoadStatsCollector collector(1.0);
  collector.Observe(SimTime::FromNanos(0),
                    {MakeSample(1, 1, 0, 0, 100), MakeSample(2, 2, 0, 100, 200)});
  collector.Observe(SimTime::FromNanos(0) + Duration::Millis(1),
                    {MakeSample(1, 1, 500, 0, 100),
                     MakeSample(2, 2, 0, 100, 200)});

  SkewVerdict verdict;
  verdict.hot.push_back(1);
  const std::vector<MachineId> candidates = {1, 2, 3};
  const SimTime now = SimTime::FromNanos(0) + Duration::Millis(1);

  ReshapePlannerOptions opt;
  ReshapePlanner planner(opt);
  std::vector<ReshapeAction> actions =
      planner.Plan(now, collector, verdict, candidates);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, ReshapeKind::kSplit);
  EXPECT_EQ(actions[0].shard, 1u);
  // Least-loaded candidate that is not the donor's machine (1 hosts the hot
  // shard; 2 and 3 are idle — either is acceptable, never 1).
  EXPECT_NE(actions[0].target, MachineId{1});

  // Cooldown: the executed shard is left alone.
  planner.NoteExecuted(now, actions[0]);
  EXPECT_TRUE(planner
                  .Plan(now + opt.global_cooldown, collector, verdict,
                        candidates)
                  .empty());

  // At the shard budget, hot shards migrate instead of splitting.
  ReshapePlannerOptions capped;
  capped.max_shards = 2;  // collector already sees 2 shards
  ReshapePlanner capped_planner(capped);
  actions = capped_planner.Plan(now, collector, verdict, candidates);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, ReshapeKind::kMigrate);

  // Calm tick + adjacent cold pair -> one merge, never below min_shards.
  SkewVerdict cold;
  cold.cold = {1, 2};
  ReshapePlanner merge_planner(opt);
  actions = merge_planner.Plan(now, collector, cold, candidates);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, ReshapeKind::kMerge);
  EXPECT_EQ(actions[0].shard, 1u);
  EXPECT_EQ(actions[0].other, 2u);
}

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  explicit Fixture(int machines = 4, int cores = 2) {
    for (int i = 0; i < machines; ++i) {
      MachineSpec spec;
      spec.cores = cores;
      spec.memory_bytes = 2_GiB;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
  }
};

TEST(KvFrontendReshapeTest, SplitPreservesDataAndUpdatesRouting) {
  Fixture f;
  KvFrontendOptions opt;
  opt.shards = 2;
  KvFrontend frontend(*f.rt, opt);
  ASSERT_TRUE(f.sim.BlockOn(frontend.Start(f.rt->CtxOn(0))).ok());

  // Write 40 keys spread over both shards.
  for (uint64_t k = 0; k < 40; ++k) {
    f.sim.BlockOn(frontend.Serve(k, /*is_read=*/false));
  }
  ASSERT_EQ(frontend.failed(), 0);

  const ProcletId donor = frontend.shards()[0].id();
  const Result<uint64_t> point = frontend.SuggestSplitPoint(donor);
  ASSERT_TRUE(point.ok());
  const Status split = f.sim.BlockOn(
      frontend.SplitShard(f.rt->CtxOn(0), donor, *point, /*target=*/3));
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(frontend.shards().size(), 3u);

  // Ranges still partition the hash space.
  const auto shards = frontend.SampleShards(f.sim.Now());
  EXPECT_EQ(shards.front().range_begin, 0u);
  EXPECT_EQ(shards.back().range_end, UINT64_MAX);
  for (size_t i = 0; i + 1 < shards.size(); ++i) {
    EXPECT_EQ(shards[i].range_end, shards[i + 1].range_begin);
  }
  EXPECT_EQ(shards[1].machine, MachineId{3});

  // Every key still reads back, through routing.
  for (uint64_t k = 0; k < 40; ++k) {
    f.sim.BlockOn(frontend.Serve(k, /*is_read=*/true));
  }
  EXPECT_EQ(frontend.failed(), 0);

  // Exactly one shard owns (and answers for) each key.
  for (uint64_t k = 0; k < 40; ++k) {
    int owners = 0;
    for (const auto& shard : frontend.shards()) {
      const auto* p = f.rt->UnsafeGet<FencedKvProclet>(shard.id());
      ASSERT_NE(p, nullptr);
      if (p->Owns(k)) {
        ++owners;
        EXPECT_TRUE(p->Get(k).ok());
        EXPECT_EQ(p->ApplyCount(k), 1);
      }
    }
    EXPECT_EQ(owners, 1);
  }
}

TEST(KvFrontendReshapeTest, MergeRejoinsNeighborsWithoutLosingWrites) {
  Fixture f;
  KvFrontendOptions opt;
  opt.shards = 2;
  KvFrontend frontend(*f.rt, opt);
  ASSERT_TRUE(f.sim.BlockOn(frontend.Start(f.rt->CtxOn(0))).ok());
  for (uint64_t k = 0; k < 30; ++k) {
    f.sim.BlockOn(frontend.Serve(k, /*is_read=*/false));
  }
  ASSERT_EQ(frontend.failed(), 0);

  const ProcletId left = frontend.shards()[0].id();
  const ProcletId right = frontend.shards()[1].id();
  const Status merged =
      f.sim.BlockOn(frontend.MergeShards(f.rt->CtxOn(0), left, right));
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(frontend.shards().size(), 1u);

  const auto* survivor = f.rt->UnsafeGet<FencedKvProclet>(left);
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(survivor->range_begin(), 0u);
  EXPECT_EQ(survivor->range_end(), UINT64_MAX);
  EXPECT_EQ(survivor->size(), 30u);
  for (uint64_t k = 0; k < 30; ++k) {
    EXPECT_EQ(survivor->ApplyCount(k), 1);
  }
  // The merged-away shard is destroyed.
  EXPECT_EQ(f.rt->LocationOf(right), kInvalidMachineId);
  // And reads still route.
  for (uint64_t k = 0; k < 30; ++k) {
    f.sim.BlockOn(frontend.Serve(k, /*is_read=*/true));
  }
  EXPECT_EQ(frontend.failed(), 0);
}

TEST(KvFrontendReshapeTest, DurableShardsRefuseReshaping) {
  Fixture f;
  KvFrontendOptions opt;
  opt.shards = 2;
  KvFrontend frontend(*f.rt, opt);
  ReplicationManager replication(*f.rt);
  frontend.AttachReplication(&replication);
  ASSERT_TRUE(f.sim.BlockOn(frontend.Start(f.rt->CtxOn(0))).ok());

  const ProcletId shard = frontend.shards()[0].id();
  const Result<uint64_t> point = frontend.SuggestSplitPoint(shard);
  ASSERT_TRUE(point.ok());
  const Status split =
      f.sim.BlockOn(frontend.SplitShard(f.rt->CtxOn(0), shard, *point, 3));
  EXPECT_EQ(split.code(), StatusCode::kFailedPrecondition);
  const Status merged = f.sim.BlockOn(frontend.MergeShards(
      f.rt->CtxOn(0), shard, frontend.shards()[1].id()));
  EXPECT_EQ(merged.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(frontend.shards().size(), 2u);
}

TEST(ReshapeExecutorTest, DefersWhenTheCopyWouldBlowTheSlo) {
  Fixture f;
  KvFrontendOptions opt;
  opt.shards = 2;
  KvFrontend frontend(*f.rt, opt);
  ASSERT_TRUE(f.sim.BlockOn(frontend.Start(f.rt->CtxOn(0))).ok());

  // Gate-closed estimate is at least migration_fixed_overhead (200us by
  // default); an SLO budget below that defers every reshape.
  ReshapeExecutorOptions tight;
  tight.slo = Duration::Micros(100);
  tight.max_copy_fraction_of_slo = 0.5;
  ReshapeExecutor executor(*f.rt, frontend, tight);

  ReshapeAction action;
  action.kind = ReshapeKind::kSplit;
  action.shard = frontend.shards()[0].id();
  action.target = 3;
  const ReshapeExecutor::Outcome out = f.sim.BlockOn(
      executor.Execute(f.rt->CtxOn(0), action, /*bytes=*/1 << 20));
  EXPECT_TRUE(out.deferred);
  EXPECT_FALSE(out.executed);
  EXPECT_EQ(executor.deferred(), 1);
  EXPECT_EQ(executor.splits(), 0);
  EXPECT_EQ(frontend.shards().size(), 2u);

  // A generous SLO lets the same action through.
  ReshapeExecutorOptions roomy;
  roomy.slo = Duration::Millis(20);
  ReshapeExecutor roomy_executor(*f.rt, frontend, roomy);
  const ReshapeExecutor::Outcome ok = f.sim.BlockOn(
      roomy_executor.Execute(f.rt->CtxOn(0), action, /*bytes=*/1024));
  EXPECT_TRUE(ok.executed);
  EXPECT_EQ(roomy_executor.splits(), 1);
  EXPECT_EQ(frontend.shards().size(), 3u);
}

TEST(AutoscalerTest, SplitsTheHotShardUnderAFlashCrowd) {
  Fixture f(/*machines=*/4);
  KvFrontendOptions opt;
  opt.shards = 4;
  KvFrontend frontend(*f.rt, opt);
  ASSERT_TRUE(f.sim.BlockOn(frontend.Start(f.rt->CtxOn(0))).ok());

  AutoscalerOptions aopt;
  aopt.period = Duration::Millis(1);
  aopt.detector.rate_floor_qps = 100.0;
  aopt.detector.hot_streak = 2;
  aopt.executor.slo = Duration::Millis(20);  // copy guard out of the way
  Autoscaler autoscaler(*f.rt, frontend, aopt);
  autoscaler.Start();

  // Everything lands on key 7: one shard takes the entire offered load.
  WorkloadOptions load;
  load.base_qps = 4000.0;
  load.keys = 64;
  load.zipf_s = 0.0;
  load.read_fraction = 0.0;
  load.duration = Duration::Millis(50);
  load.flash_multiplier = 1.0;
  load.flash_start = SimTime::FromNanos(0);
  load.flash_end = SimTime::Max();
  load.flash_key_fraction = 1.0;
  load.flash_key_begin = 7;
  load.flash_key_end = 8;
  OpenLoopLoadGen gen(f.sim, frontend, load);
  f.sim.BlockOn(gen.Run());
  f.sim.RunFor(Duration::Millis(20));
  autoscaler.Stop();
  f.sim.RunFor(Duration::Millis(5));

  EXPECT_GE(autoscaler.splits(), 1);
  EXPECT_GT(frontend.shards().size(), 4u);
  const AutoscaleSample sample = autoscaler.SampleAutoscale(f.sim.Now());
  EXPECT_EQ(sample.shard_count,
            static_cast<int>(frontend.shards().size()));
  EXPECT_EQ(sample.splits_total, autoscaler.splits());
  // No request was lost to the reshaping.
  EXPECT_EQ(frontend.ok_in_slo() + frontend.ok_late() + frontend.failed(),
            frontend.offered());
}

TEST(SkewDetectorTest, ColdFloorTripsOnAnIdleClusterWhereRelativeCannot) {
  // Post-flash remnants are EVENLY idle: median ~0, so the cluster never
  // counts as busy and relative cold detection is structurally blind. The
  // absolute floor is what unwinds them.
  LoadStatsCollector collector(1.0);
  SkewDetectorOptions relative_only;
  relative_only.cold_streak = 3;
  SkewDetector relative(relative_only);
  SkewDetectorOptions floored = relative_only;
  floored.cold_floor_qps = 50.0;
  SkewDetector absolute(floored);

  SimTime t = SimTime::FromNanos(0);
  for (int tick = 0; tick < 6; ++tick) {
    collector.Observe(t, {MakeSample(1, 1, 0, 0, 100),
                          MakeSample(2, 2, 0, 100, 200),
                          MakeSample(3, 3, 0, 200, 300)});
    t = t + Duration::Millis(1);
    EXPECT_TRUE(relative.Update(collector).cold.empty()) << "tick " << tick;
    const SkewVerdict v = absolute.Update(collector);
    if (tick + 1 >= floored.cold_streak) {
      EXPECT_EQ(v.cold.size(), 3u) << "tick " << tick;
    }
  }
}

WorkloadOptions FlashOnKeySeven(Duration duration) {
  WorkloadOptions load;
  load.base_qps = 4000.0;
  load.keys = 64;
  load.zipf_s = 0.0;
  load.read_fraction = 0.0;
  load.duration = duration;
  load.flash_multiplier = 1.0;
  load.flash_start = SimTime::FromNanos(0);
  load.flash_end = SimTime::Max();
  load.flash_key_fraction = 1.0;
  load.flash_key_begin = 7;
  load.flash_key_end = 8;
  return load;
}

TEST(AutoscalerTest, ColdFloorUnwindsFlashSplitsSoRepeatFlashesDoNotRatchet) {
  Fixture f(/*machines=*/4);
  KvFrontendOptions opt;
  opt.shards = 4;
  KvFrontend frontend(*f.rt, opt);
  ASSERT_TRUE(f.sim.BlockOn(frontend.Start(f.rt->CtxOn(0))).ok());

  AutoscalerOptions aopt;
  aopt.period = Duration::Millis(1);
  aopt.detector.rate_floor_qps = 100.0;
  aopt.detector.hot_streak = 2;
  aopt.detector.cold_streak = 4;
  // The flash pushes thousands of qps at one shard; once it passes, every
  // remnant idles far below 200 qps and the floor melts them back down.
  aopt.detector.cold_floor_qps = 200.0;
  aopt.executor.slo = Duration::Millis(20);
  Autoscaler autoscaler(*f.rt, frontend, aopt);
  autoscaler.Start();

  // Flash 1 -> splits; quiet -> the cold floor merges the remnants.
  OpenLoopLoadGen first(f.sim, frontend, FlashOnKeySeven(Duration::Millis(30)));
  f.sim.BlockOn(first.Run());
  const size_t peak_after_first = frontend.shards().size();
  const int64_t splits_after_first = autoscaler.splits();
  EXPECT_GE(splits_after_first, 1);
  EXPECT_GT(peak_after_first, 4u);
  f.sim.RunFor(Duration::Millis(40));
  const size_t after_first_quiet = frontend.shards().size();
  EXPECT_GE(autoscaler.merges(), 1);
  EXPECT_LT(after_first_quiet, peak_after_first);

  // Flash 2, same shape; the count must not ratchet past the first peak.
  OpenLoopLoadGen second(f.sim, frontend, FlashOnKeySeven(Duration::Millis(30)));
  f.sim.BlockOn(second.Run());
  EXPECT_GT(autoscaler.splits(), splits_after_first);
  f.sim.RunFor(Duration::Millis(40));
  autoscaler.Stop();
  f.sim.RunFor(Duration::Millis(5));
  EXPECT_LE(frontend.shards().size(), peak_after_first);
}

FailureDetectorOptions StaysSuspectedOptions() {
  // Fast suspicion, confirmation far beyond the test horizon: the machine
  // stays kSuspected, exercising the health pause rather than dead-machine
  // handling.
  FailureDetectorOptions d;
  d.controller = 0;
  d.heartbeat_period = Duration::Micros(500);
  d.suspect_after = Duration::Millis(2);
  d.confirm_after = Duration::Millis(500);
  d.check_period = Duration::Micros(250);
  return d;
}

TEST(AutoscalerTest, PausesVerdictsForShardsHostedOnSuspectedMachines) {
  Fixture f(/*machines=*/4);
  FaultInjector faults(f.sim, f.cluster);
  KvFrontendOptions opt;
  // 4 shards so the median shard is idle during the flash — with only 2,
  // the hot shard IS the median and the relative bar can never trip.
  opt.shards = 4;
  KvFrontend frontend(*f.rt, opt);
  ASSERT_TRUE(f.sim.BlockOn(frontend.Start(f.rt->CtxOn(0))).ok());

  // Find the machine hosting key 7's shard and cut its heartbeat path
  // (one-way, toward the controller): arrivals still reach the shard, but
  // the detector suspects the host.
  MachineId hot_host = kInvalidMachineId;
  for (const auto& shard : frontend.shards()) {
    const auto* p = f.rt->UnsafeGet<FencedKvProclet>(shard.id());
    ASSERT_NE(p, nullptr);
    if (p->Owns(7)) {
      hot_host = f.rt->LocationOf(shard.id());
    }
  }
  ASSERT_NE(hot_host, kInvalidMachineId);
  faults.SchedulePartitionOneWay(f.sim.Now(), hot_host, 0);

  FailureDetector detector(f.sim, f.cluster, StaysSuspectedOptions());
  detector.Start();

  AutoscalerOptions aopt;
  aopt.period = Duration::Millis(2);  // first possible split after suspicion
  aopt.detector.rate_floor_qps = 100.0;
  aopt.detector.hot_streak = 2;
  aopt.executor.slo = Duration::Millis(20);
  Autoscaler autoscaler(*f.rt, frontend, aopt);
  autoscaler.AttachHealth(&detector);
  autoscaler.Start();

  OpenLoopLoadGen gen(f.sim, frontend, FlashOnKeySeven(Duration::Millis(30)));
  f.sim.BlockOn(gen.Run());
  f.sim.RunFor(Duration::Millis(10));
  autoscaler.Stop();
  detector.Stop();
  f.sim.RunFor(Duration::Millis(5));

  EXPECT_EQ(detector.StateOf(hot_host), Health::kSuspected);
  // The hot verdict kept firing, but every one of them was paused: the
  // load estimate is stale and the copy source may be dying.
  EXPECT_EQ(autoscaler.splits(), 0);
  EXPECT_EQ(autoscaler.migrations(), 0);
  EXPECT_GT(autoscaler.health_skips(), 0);
}

TEST(AutoscalerTest, ExcludesSuspectedMachinesFromReshapeTargets) {
  Fixture f(/*machines=*/6);
  FaultInjector faults(f.sim, f.cluster);
  KvFrontendOptions opt;
  opt.shards = 4;  // median stays idle under the flash (see above)
  KvFrontend frontend(*f.rt, opt);
  ASSERT_TRUE(f.sim.BlockOn(frontend.Start(f.rt->CtxOn(0))).ok());

  // Suspect an IDLE machine (hosts nothing): splits must land on the other
  // spare host, never on the suspect.
  std::set<MachineId> hosts;
  for (const auto& shard : frontend.shards()) {
    hosts.insert(f.rt->LocationOf(shard.id()));
  }
  MachineId suspect = kInvalidMachineId;
  for (MachineId m = 1; m < f.rt->cluster().size(); ++m) {
    if (hosts.count(m) == 0) {
      suspect = m;
      break;
    }
  }
  ASSERT_NE(suspect, kInvalidMachineId);
  faults.SchedulePartitionOneWay(f.sim.Now(), suspect, 0);

  FailureDetector detector(f.sim, f.cluster, StaysSuspectedOptions());
  detector.Start();

  AutoscalerOptions aopt;
  aopt.period = Duration::Millis(1);
  aopt.detector.rate_floor_qps = 100.0;
  aopt.detector.hot_streak = 2;
  aopt.executor.slo = Duration::Millis(20);
  Autoscaler autoscaler(*f.rt, frontend, aopt);
  autoscaler.AttachHealth(&detector);
  autoscaler.Start();

  OpenLoopLoadGen gen(f.sim, frontend, FlashOnKeySeven(Duration::Millis(30)));
  f.sim.BlockOn(gen.Run());
  f.sim.RunFor(Duration::Millis(10));
  autoscaler.Stop();
  detector.Stop();
  f.sim.RunFor(Duration::Millis(5));

  EXPECT_EQ(detector.StateOf(suspect), Health::kSuspected);
  EXPECT_GE(autoscaler.splits(), 1);
  for (const auto& shard : frontend.shards()) {
    EXPECT_NE(f.rt->LocationOf(shard.id()), suspect);
  }
}

}  // namespace
}  // namespace quicksand
