#include "quicksand/serving/kv_frontend.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "quicksand/cluster/fault_injector.h"
#include "quicksand/common/bytes.h"
#include "quicksand/serving/workload.h"
#include "quicksand/trace/query.h"

namespace quicksand {
namespace {

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  explicit Fixture(int machines = 3, int cores = 2) {
    for (int i = 0; i < machines; ++i) {
      MachineSpec spec;
      spec.cores = cores;
      spec.memory_bytes = 2_GiB;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
  }

  // Run the generator, then drain until every offered request is accounted
  // (ok, late, or failed) — Serve fibers must not outlive the fixture.
  void RunAndDrain(OpenLoopLoadGen& gen, KvFrontend& frontend) {
    sim.BlockOn(gen.Run());
    for (int i = 0; i < 100; ++i) {
      const int64_t accounted =
          frontend.ok_in_slo() + frontend.ok_late() + frontend.failed();
      if (accounted >= frontend.offered()) {
        break;
      }
      sim.RunFor(Duration::Millis(10));
    }
    ASSERT_EQ(frontend.ok_in_slo() + frontend.ok_late() + frontend.failed(),
              frontend.offered());
  }
};

KvFrontendOptions LightOptions() {
  KvFrontendOptions opt;
  opt.shards = 4;
  opt.slo = Duration::Millis(2);
  opt.service_time = Duration::Micros(50);
  opt.stats_window = Duration::Millis(50);
  return opt;
}

WorkloadOptions LightLoad(uint64_t seed = 1) {
  WorkloadOptions opt;
  opt.base_qps = 2000.0;  // far below the ~80k qps capacity of 2x2 cores
  opt.keys = 64;
  opt.zipf_s = 0.9;
  opt.read_fraction = 0.8;
  opt.duration = Duration::Millis(50);
  opt.seed = seed;
  return opt;
}

TEST(KvFrontendTest, UncontendedLoadIsServedEntirelyWithinSlo) {
  Fixture f;
  KvFrontend frontend(*f.rt, LightOptions());
  ASSERT_TRUE(f.sim.BlockOn(frontend.Start(f.rt->CtxOn(0))).ok());
  ASSERT_EQ(frontend.shards().size(), 4u);
  // Shards avoid the frontend's home machine when others exist.
  for (const auto& shard : frontend.shards()) {
    EXPECT_NE(f.rt->LocationOf(shard.id()), MachineId{0});
  }

  OpenLoopLoadGen gen(f.sim, frontend, LightLoad());
  f.RunAndDrain(gen, frontend);

  EXPECT_EQ(gen.arrivals(), frontend.offered());
  EXPECT_GT(frontend.offered(), 50);  // ~100 expected at 2000 qps x 50ms
  EXPECT_EQ(frontend.failed(), 0);
  EXPECT_EQ(frontend.ok_late(), 0);  // 50us of work against a 2ms SLO
  EXPECT_EQ(frontend.ok_in_slo(), frontend.offered());
  EXPECT_EQ(frontend.sheds_seen(), 0);
  EXPECT_EQ(frontend.deadline_rejections_seen(), 0);
}

TEST(KvFrontendTest, SampleServingReportsWindowedRates) {
  Fixture f;
  KvFrontend frontend(*f.rt, LightOptions());
  ASSERT_TRUE(f.sim.BlockOn(frontend.Start(f.rt->CtxOn(0))).ok());
  OpenLoopLoadGen gen(f.sim, frontend, LightLoad());
  f.sim.BlockOn(gen.Run());

  // Sampled mid-run (before the window slides past the traffic): rates are
  // within a factor of a few of the configured load, latencies inside SLO.
  const ServingSample s = frontend.SampleServing(f.sim.Now());
  EXPECT_GT(s.offered_qps, 500.0);
  EXPECT_LT(s.offered_qps, 8000.0);
  EXPECT_GT(s.goodput_qps, 500.0);
  EXPECT_LE(s.p99, LightOptions().slo);
  EXPECT_LE(s.p50, s.p99);

  for (int i = 0; i < 100 && frontend.ok_in_slo() + frontend.ok_late() +
                                     frontend.failed() <
                                 frontend.offered();
       ++i) {
    f.sim.RunFor(Duration::Millis(10));
  }
}

TEST(KvFrontendTest, SameSeedRunsAreBitIdentical) {
  auto run = [](uint64_t seed) {
    Fixture f;
    KvFrontend frontend(*f.rt, LightOptions());
    EXPECT_TRUE(f.sim.BlockOn(frontend.Start(f.rt->CtxOn(0))).ok());
    OpenLoopLoadGen gen(f.sim, frontend, LightLoad(seed));
    f.RunAndDrain(gen, frontend);
    return std::tuple(frontend.offered(), frontend.ok_in_slo(),
                      frontend.retries(), f.sim.Now());
  };
  EXPECT_EQ(run(1), run(1));
  // A different seed produces a different arrival sequence.
  EXPECT_NE(std::get<3>(run(1)), std::get<3>(run(2)));
}

TEST(OpenLoopLoadGenTest, RateProfileComposesDiurnalAndFlash) {
  Fixture f;
  KvFrontend frontend(*f.rt, LightOptions());
  WorkloadOptions opt;
  opt.base_qps = 1000.0;
  opt.diurnal_amplitude = 0.5;
  opt.diurnal_period = Duration::Seconds(1);
  opt.flash_multiplier = 3.0;
  opt.flash_start = SimTime::Zero() + Duration::Millis(600);
  opt.flash_end = SimTime::Zero() + Duration::Millis(700);
  OpenLoopLoadGen gen(f.sim, frontend, opt);

  // Quarter period: sin = 1, so base * 1.5.
  EXPECT_NEAR(gen.RateAt(SimTime::Zero() + Duration::Millis(250)), 1500.0,
              1.0);
  // Inside the flash window: the diurnal value at 650ms
  // (1 + 0.5 * sin(2*pi*0.65) ~= 0.5955) times the 3x flash multiplier.
  EXPECT_NEAR(gen.RateAt(SimTime::Zero() + Duration::Millis(650)), 1786.5,
              2.0);
  // Outside the flash window at the same trough: just the diurnal dip.
  EXPECT_NEAR(gen.RateAt(SimTime::Zero() + Duration::Millis(750)), 500.0,
              1.0);
}

TEST(OpenLoopLoadGenTest, ArrivalCountTracksOfferedRate) {
  Fixture f;
  KvFrontend frontend(*f.rt, LightOptions());
  ASSERT_TRUE(f.sim.BlockOn(frontend.Start(f.rt->CtxOn(0))).ok());
  WorkloadOptions opt = LightLoad();
  opt.base_qps = 10000.0;
  opt.duration = Duration::Millis(100);
  OpenLoopLoadGen gen(f.sim, frontend, opt);
  f.RunAndDrain(gen, frontend);
  // ~1000 expected arrivals; Poisson noise is a few percent at this count.
  EXPECT_GT(gen.arrivals(), 800);
  EXPECT_LT(gen.arrivals(), 1200);
}

// --- The retry schedule ------------------------------------------------------
//
// A one-shard frontend whose shard's host crashed with no recovery armed:
// every attempt ends in ProcletLostError, which the frontend treats as
// retryable, so one request runs the retry schedule until something stops
// it. Each attempt is one `invoke` span at the shard, and a lost shard fails
// its lookup at the controller (the frontend's home) in zero sim time, so
// the spans' start times are the schedule itself.

KvFrontendOptions RetryOptions() {
  KvFrontendOptions opt = LightOptions();
  opt.shards = 1;
  opt.deadline_propagation = false;
  opt.retry_budget = false;
  opt.max_attempts = 5;
  opt.retry_backoff = Duration::Micros(100);
  opt.max_retry_backoff = Duration::Micros(300);
  return opt;
}

struct LostShardRun {
  bool acked = true;
  std::vector<int64_t> attempt_ns;  // each attempt's start, ns after arrival
  int64_t elapsed_ns = 0;           // arrival to the request's outcome
  int64_t retries = 0;
  int64_t failed = 0;
  int64_t budget_denied = 0;
};

LostShardRun ServeAgainstLostShard(const KvFrontendOptions& options) {
  Fixture f;
  FaultInjector faults(f.sim, f.cluster);
  f.rt->AttachFaultInjector(faults);
  Tracer tracer(f.sim, f.cluster.size());
  f.rt->AttachTracer(&tracer);
  KvFrontend frontend(*f.rt, options);
  EXPECT_TRUE(f.sim.BlockOn(frontend.Start(f.rt->CtxOn(0))).ok());
  const ProcletId shard = frontend.shards().front().id();
  faults.FailNow(f.rt->LocationOf(shard));

  LostShardRun run;
  const SimTime arrival = f.sim.Now();
  run.acked = f.sim.BlockOn(frontend.ServeDetailed(/*key=*/7, /*is_read=*/true));
  run.elapsed_ns = (f.sim.Now() - arrival).nanos();
  for (const TraceSpan& span :
       TraceQuery::FromTracer(tracer).SpansOf(TraceOp::kInvoke)) {
    if (span.proclet == shard) {
      run.attempt_ns.push_back((span.begin - arrival).nanos());
    }
  }
  run.retries = frontend.retries();
  run.failed = frontend.failed();
  run.budget_denied = frontend.budget().denied();
  return run;
}

TEST(KvFrontendRetryTest, RetryableAttemptsRunMaxAttemptsWithCappedDoubling) {
  const LostShardRun run = ServeAgainstLostShard(RetryOptions());
  EXPECT_FALSE(run.acked);
  EXPECT_EQ(run.failed, 1);
  EXPECT_EQ(run.retries, 4);  // max_attempts - 1
  // Backoffs of 100, 200, 300 (capped), 300 us between the five attempts;
  // none after the last.
  EXPECT_EQ(run.attempt_ns,
            (std::vector<int64_t>{0, 100'000, 300'000, 600'000, 900'000}));
  EXPECT_EQ(run.elapsed_ns, 900'000);
}

TEST(KvFrontendRetryTest, EmptyRetryBudgetStopsTheFirstRetry) {
  KvFrontendOptions options = RetryOptions();
  options.retry_budget = true;
  options.budget.ratio = 0.0;     // first attempts earn nothing
  options.budget.capacity = 0.5;  // and the bucket never holds a whole token
  const LostShardRun run = ServeAgainstLostShard(options);
  EXPECT_FALSE(run.acked);
  EXPECT_EQ(run.failed, 1);
  EXPECT_EQ(run.retries, 0);
  EXPECT_EQ(run.budget_denied, 1);
  EXPECT_EQ(run.attempt_ns, std::vector<int64_t>{0});
  EXPECT_EQ(run.elapsed_ns, 0);
}

TEST(KvFrontendRetryTest, DeadlinePropagationGivesUpOncePastTheSlo) {
  KvFrontendOptions options = RetryOptions();
  options.deadline_propagation = true;
  options.slo = Duration::Micros(300);
  options.max_attempts = 10;
  options.max_retry_backoff = Duration::Millis(10);
  const LostShardRun run = ServeAgainstLostShard(options);
  EXPECT_FALSE(run.acked);
  EXPECT_EQ(run.failed, 1);
  // The attempt at 300 us fails exactly at the deadline, not past it, so the
  // request backs off once more; the attempt at 700 us is past it and the
  // client gives up instead of sleeping again.
  EXPECT_EQ(run.retries, 3);
  EXPECT_EQ(run.attempt_ns,
            (std::vector<int64_t>{0, 100'000, 300'000, 700'000}));
  EXPECT_EQ(run.elapsed_ns, 700'000);
}

}  // namespace
}  // namespace quicksand
