// Workloads `kv_steady` and `kv_reshape`: open-loop KV serving through
// KvFrontend over FencedKvProclet shards.
//
// The load generator is a fiber inside the simulator: a Poisson process at
// the peak rate, thinned to the rate profile (a diurnal wave, and for
// kv_reshape repeated flash crowds on shifting viral key ranges). It can
// never fall behind, because it runs on the sim clock. Every arrival gets its
// own fiber calling ServeDetailed, and latency runs from the scheduled
// arrival to the ack. Acked writes feed the chaos engine's ChaosLedger, and
// the end-of-run read-back checks that each one is still stored.

#include <cmath>
#include <memory>
#include <numbers>
#include <optional>

#include "quicksand/autoscale/autoscaler.h"
#include "quicksand/chaos/oracles.h"
#include "quicksand/common/bytes.h"
#include "quicksand/common/random.h"
#include "quicksand/overload/admission.h"
#include "quicksand/sched/local_reactor.h"
#include "quicksand/serving/kv_frontend.h"
#include "trace_agg.h"
#include "workloads.h"

namespace perfbench {

using namespace quicksand;  // NOLINT: the workload is library calls throughout

namespace {

// Shared by both workloads: 2-core machines (m0 runs the frontend, the rest
// host shards), 2 initial shards, 50 us of service per request against a
// 2 ms SLO, and Zipf(0.9) keys over 512 keys.
constexpr int kCores = 2;
constexpr int kShards = 2;
constexpr Duration kServiceTime = Duration::Micros(50);
constexpr Duration kSlo = Duration::Millis(2);
constexpr uint64_t kKeys = 512;
constexpr double kZipf = 0.9;
constexpr Duration kDrain = Duration::Millis(60);

struct KvConfig {
  int machines = 3;
  Duration admission_target = Duration::Micros(150);
  double read_fraction = 0.9;
  double base_qps = 80000.0;
  // rate(t) = base * (1 + amplitude * sin(2 pi t / 250 ms)).
  double diurnal_amplitude = 0.0;
  // Flash crowds: every `flash_every`, for `flash_length`, the rate is
  // multiplied and `flash_key_fraction` of arrivals hit one block of
  // kFlashKeys consecutive keys. Window i takes block 7i mod (kKeys /
  // kFlashKeys), so successive crowds visit every block. The blocks are the
  // same for every seed: seed-drawn blocks made the number of reshapes, and
  // with it the host cost, swing from seed to seed.
  Duration flash_every = Duration::Zero();
  Duration flash_length = Duration::Zero();
  double flash_multiplier = 1.0;
  double flash_key_fraction = 0.0;
  bool autoscale = false;
  Duration run = Duration::Millis(1000);
};

constexpr uint64_t kFlashKeys = 32;
constexpr Duration kDiurnalPeriod = Duration::Millis(250);

// ab9's topology and controls, over a diurnal wave from 0.7x to 1.3x of the
// 80k qps capacity (2 shard hosts x 2 cores / 50 us).
KvConfig SteadyConfig() {
  KvConfig c;
  c.diurnal_amplitude = 0.3;
  return c;
}

// ab10's topology and autoscaler: 2 shard hosts plus 3 idle ones, half
// writes, and a flash crowd on the next key block every 100 ms.
KvConfig ReshapeConfig() {
  KvConfig c;
  c.machines = 6;
  c.admission_target = Duration::Micros(200);
  c.read_fraction = 0.5;
  c.base_qps = 40000.0;
  c.flash_every = Duration::Millis(100);
  c.flash_length = Duration::Millis(50);
  c.flash_multiplier = 3.5;
  c.flash_key_fraction = 0.7;
  c.autoscale = true;
  c.run = Duration::Millis(2000);
  return c;
}

class LoadGen {
 public:
  LoadGen(Simulator& sim, KvFrontend& frontend, const KvConfig& cfg,
             uint64_t seed)
      : sim_(sim), frontend_(frontend), cfg_(cfg), rng_(seed) {}

  // Writes every key once, one after another, so every hash range holds
  // acked data before the timed phase. Returns how many writes were acked.
  Task<int64_t> Preload() {
    int64_t acked = 0;
    for (uint64_t key = 0; key < kKeys; ++key) {
      auto serve = frontend_.ServeDetailed(key, /*is_read=*/false);
      const bool ok = co_await std::move(serve);
      if (ok) {
        ++acked;
        ledger_.RecordAck(key, sim_.Now());
      }
    }
    co_return acked;
  }

  // Issues arrivals for cfg.run from `start` (now).
  Task<> Generate(SimTime start) {
    start_ = start;
    const double peak = cfg_.base_qps * (1.0 + cfg_.diurnal_amplitude) *
                        std::max(1.0, cfg_.flash_multiplier);
    const SimTime end = start_ + cfg_.run;
    SimTime next = start_;
    for (;;) {
      next = next + Duration::Nanos(std::max<int64_t>(
                        1, static_cast<int64_t>(rng_.NextExponential(1e9 / peak))));
      if (next >= end) {
        break;
      }
      co_await sim_.SleepUntil(next);
      const int flash = FlashWindow(next);
      if (rng_.NextDouble() * peak >= RateAt(next, flash)) {
        continue;  // thinned away
      }
      uint64_t key;
      if (flash >= 0 && rng_.NextDouble() < cfg_.flash_key_fraction) {
        const uint64_t block = (7 * static_cast<uint64_t>(flash)) % (kKeys / kFlashKeys);
        key = block * kFlashKeys + rng_.NextBounded(kFlashKeys);
      } else {
        key = rng_.NextZipf(kKeys, kZipf);
      }
      const bool is_read = rng_.NextDouble() < cfg_.read_fraction;
      sim_.Spawn(Request(next, key, is_read));
    }
    generating_ = false;
  }

  bool drained() const { return !generating_ && completed_ == issued_; }
  int64_t issued() const { return issued_; }
  int64_t acked() const { return acked_; }
  int64_t failed() const { return failed_; }
  const std::vector<int64_t>& latencies() const { return latencies_; }
  const ChaosLedger& ledger() const { return ledger_; }

 private:
  // Index of the flash window covering `t`, or -1.
  int FlashWindow(SimTime t) const {
    if (cfg_.flash_every <= Duration::Zero()) {
      return -1;
    }
    const int64_t since = (t - start_).nanos();
    if (since % cfg_.flash_every.nanos() >= cfg_.flash_length.nanos()) {
      return -1;
    }
    return static_cast<int>(since / cfg_.flash_every.nanos());
  }

  double RateAt(SimTime t, int flash) const {
    const double phase = static_cast<double>((t - start_).nanos()) /
                         static_cast<double>(kDiurnalPeriod.nanos());
    double rate = cfg_.base_qps *
                  (1.0 + cfg_.diurnal_amplitude * std::sin(2.0 * std::numbers::pi * phase));
    if (flash >= 0) {
      rate *= cfg_.flash_multiplier;
    }
    return rate;
  }

  Task<> Request(SimTime arrival, uint64_t key, bool is_read) {
    ++issued_;
    auto serve = frontend_.ServeDetailed(key, is_read);
    const bool ok = co_await std::move(serve);
    if (ok) {
      ++acked_;
      latencies_.push_back((sim_.Now() - arrival).nanos());
      if (!is_read) {
        ledger_.RecordAck(key, sim_.Now());
      }
    } else {
      ++failed_;
    }
    ++completed_;
  }

  Simulator& sim_;
  KvFrontend& frontend_;
  const KvConfig& cfg_;
  Rng rng_;
  SimTime start_ = SimTime::Zero();
  bool generating_ = true;
  int64_t issued_ = 0;
  int64_t completed_ = 0;
  int64_t acked_ = 0;
  int64_t failed_ = 0;
  std::vector<int64_t> latencies_;
  ChaosLedger ledger_;
};

// Serving-stack counters, read before and after the timed phase.
struct ServingCounters {
  int64_t offered, ok_in_slo, ok_late, failed, retries, moved_reroutes,
      reshape_rollbacks, admits, sheds, budget_denied, deadline_rejected;

  static ServingCounters Read(const KvFrontend& f, const AdmissionController& a,
                              const Runtime& rt) {
    return {f.offered(),        f.ok_in_slo(),
            f.ok_late(),        f.failed(),
            f.retries(),        f.moved_reroutes(),
            f.reshape_rollbacks(), a.admits(),
            a.sheds(),          f.budget().denied(),
            rt.stats().deadline_rejected_invocations};
  }
};

RepResult RunKv(const KvConfig& cfg, const RepContext& rc) {
  RepResult r;

  PhaseTimer build(rc.spans, "build");
  Simulator sim;
  Cluster cluster(sim);
  for (int i = 0; i < cfg.machines; ++i) {
    MachineSpec spec;
    spec.cores = kCores;
    spec.memory_bytes = 2 * kGiB;
    cluster.AddMachine(spec);
  }
  Runtime rt(sim, cluster);
  Tracer* tracer = AttachBenchTracer(rc.trace, rt, rc.label);
  std::optional<SimTraceAggregator> agg;
  if (tracer != nullptr) {
    agg.emplace(*tracer);
  }
  AdmissionOptions aopt;
  aopt.target = cfg.admission_target;
  aopt.interval = Duration::Micros(500);
  AdmissionController admission(cluster, aopt);
  rt.AttachAdmission(&admission);
  KvFrontendOptions fopt;
  fopt.shards = kShards;
  fopt.slo = kSlo;
  fopt.service_time = kServiceTime;
  // Request size is an input too: drawn per seed from [64, 256] bytes.
  fopt.request_bytes = 64 + static_cast<int64_t>(Rng(rc.seed ^ 0x51ceull).NextBounded(193));
  KvFrontend frontend(rt, fopt);
  r.setup_s += build.Stop();

  // Fixed 500 us steps, the same in traced and untraced reps, bound how many
  // trace events can pile up between harvests.
  const auto run_until = [&sim, &agg](SimTime deadline, const auto& done) {
    while (sim.Now() < deadline && !done()) {
      sim.RunFor(Duration::Micros(500));
      if (agg) {
        agg->Harvest();
      }
    }
  };

  PhaseTimer start(rc.spans, "start");
  const Status started = sim.BlockOn(frontend.Start(rt.CtxOn(0)));
  if (!started.ok()) {
    r.violations.push_back("frontend start: " + started.ToString());
    return r;
  }
  LoadGen load(sim, frontend, cfg, rc.seed);
  std::optional<int64_t> preloaded;
  struct Preload {
    static Task<> Run(Task<int64_t> body, std::optional<int64_t>& out) {
      out.emplace(co_await std::move(body));
    }
  };
  sim.Spawn(Preload::Run(load.Preload(), preloaded));
  run_until(sim.Now() + Duration::Seconds(1), [&preloaded] { return preloaded.has_value(); });
  if (preloaded.value_or(0) != static_cast<int64_t>(kKeys)) {
    r.violations.push_back("preload acked " + std::to_string(preloaded.value_or(0)) +
                           " of " + std::to_string(kKeys) + " writes");
    return r;
  }
  std::unique_ptr<Autoscaler> autoscaler;
  std::vector<std::unique_ptr<LocalReactor>> reactors;
  if (cfg.autoscale) {
    const double per_host_qps = kCores * 1e9 / static_cast<double>(kServiceTime.nanos());
    AutoscalerOptions sopt;
    sopt.period = Duration::Millis(1);
    sopt.executor.slo = kSlo;
    sopt.planner.max_shards = 2 * (cfg.machines - 1);
    sopt.detector.rate_floor_qps = 0.25 * per_host_qps;
    sopt.detector.cold_floor_qps = 0.1 * per_host_qps;
    autoscaler = std::make_unique<Autoscaler>(rt, frontend, sopt);
    autoscaler->AttachAdmission(&admission);
    reactors = StartLocalReactors(rt);
    for (auto& reactor : reactors) {
      reactor->AttachOverload(&admission);
      reactor->AttachAutoscaler(autoscaler.get());
    }
    autoscaler->Start();
  }
  r.setup_s += start.Stop();

  PhaseTimer timed(rc.spans, "timed");
  const LayerSnapshot before = TakeSnapshot(rt);
  const ServingCounters c0 = ServingCounters::Read(frontend, admission, rt);
  sim.Spawn(load.Generate(sim.Now()));
  run_until(before.now + cfg.run + kDrain, [] { return false; });
  run_until(sim.Now() + Duration::Seconds(4), [&load] { return load.drained(); });
  ReportCommonLayers(rt, before, &r.sim);
  r.run_s = timed.Stop();

  PhaseTimer verify(rc.spans, "verify");
  const ServingCounters c1 = ServingCounters::Read(frontend, admission, rt);
  r.attempted = load.issued();
  const int64_t offered = c1.offered - c0.offered;
  const int64_t ok_in_slo = c1.ok_in_slo - c0.ok_in_slo;
  const int64_t ok_late = c1.ok_late - c0.ok_late;
  const int64_t failed = c1.failed - c0.failed;
  if (!load.drained() || ok_in_slo + ok_late + failed != offered ||
      offered != load.issued() || load.acked() != ok_in_slo + ok_late ||
      load.failed() != failed) {
    r.violations.push_back(
        "request accounting: issued " + std::to_string(load.issued()) +
        ", offered " + std::to_string(offered) + ", ok+late+failed " +
        std::to_string(ok_in_slo + ok_late + failed) + ", acked " +
        std::to_string(load.acked()));
  }
  if (autoscaler != nullptr) {
    // Let any reshape in flight finish before reading the shards back.
    autoscaler->Stop();
    run_until(sim.Now() + Duration::Millis(20), [] { return false; });
  }
  std::vector<OracleViolation> found;
  CheckRangePartition(frontend.SampleShards(sim.Now()), sim.Now(), &found);
  const auto present = [&rt, &frontend, &sim](uint64_t key) {
    const uint64_t hash = KvShardHash(key);
    for (const ShardServingSample& s : frontend.SampleShards(sim.Now())) {
      if (s.range_begin <= hash && hash < s.range_end) {
        const auto* shard = rt.UnsafeGet<FencedKvProclet>(s.proclet);
        return !rt.IsLost(s.proclet) && shard != nullptr && shard->Get(key).ok();
      }
    }
    return false;
  };
  // No faults are injected, so no loss is excusable: strict mode.
  load.ledger().Verify(present, /*strict=*/true, sim.Now(), &found);
  for (const OracleViolation& v : found) {
    r.violations.push_back(v.oracle + ": " + v.detail);
  }

  const double run_s = static_cast<double>(cfg.run.nanos()) / 1e9;
  r.sim.Set("sim_goodput", static_cast<double>(ok_in_slo) / run_s, "1/s");
  ReportLatency(load.latencies(), &r.sim);
  r.sim.Set("ok_frac",
            static_cast<double>(load.acked()) /
                static_cast<double>(std::max<int64_t>(1, load.issued())),
            "frac");
  const auto count = [&r](const char* name, int64_t v) {
    r.sim.Set(name, static_cast<double>(v), "count");
  };
  count("serving.offered", offered);
  count("serving.ok_in_slo", ok_in_slo);
  count("serving.ok_late", ok_late);
  count("serving.failed", failed);
  count("serving.retries", c1.retries - c0.retries);
  count("serving.moved_reroutes", c1.moved_reroutes - c0.moved_reroutes);
  count("serving.reshape_rollbacks", c1.reshape_rollbacks - c0.reshape_rollbacks);
  count("serving.acked_writes", load.ledger().acked_keys());
  count("serving.shards_final", static_cast<int64_t>(frontend.shards().size()));
  const int64_t admits = c1.admits - c0.admits;
  const int64_t sheds = c1.sheds - c0.sheds;
  count("overload.admits", admits);
  count("overload.sheds", sheds);
  r.sim.Set("overload.shed_ratio",
            admits + sheds > 0
                ? static_cast<double>(sheds) / static_cast<double>(admits + sheds)
                : 0.0,
            "frac");
  count("overload.budget_denied", c1.budget_denied - c0.budget_denied);
  count("overload.deadline_rejected", c1.deadline_rejected - c0.deadline_rejected);
  if (autoscaler != nullptr) {
    count("autoscale.splits", autoscaler->splits());
    count("autoscale.merges", autoscaler->merges());
    count("autoscale.migrations", autoscaler->migrations());
    count("autoscale.deferred", autoscaler->deferred());
    count("autoscale.reshape_failures", autoscaler->reshape_failures());
    int64_t evictions = 0;
    for (const auto& reactor : reactors) {
      evictions += reactor->cpu_evictions() + reactor->memory_evictions();
    }
    count("sched.reactor_evictions", evictions);
  }
  if (agg) {
    agg->Harvest();
    ReportTrace(*agg, &r);
  }
  verify.Stop();
  return r;
}

}  // namespace

RepResult RunKvSteady(const RepContext& rc) { return RunKv(SteadyConfig(), rc); }

RepResult RunKvReshape(const RepContext& rc) { return RunKv(ReshapeConfig(), rc); }

}  // namespace perfbench
