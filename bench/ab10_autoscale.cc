// Ablation A10: autoscale — reshape the hot range instead of shedding it.
//
// ab9 ended where admission control ends: past a hot shard's capacity the
// excess is shed, forever, even when the rest of the cluster sits idle.
// This bench adds the autoscale loop (autoscale/) on top of the same
// serving stack and drives a flash crowd at a narrow key range:
//
//  * shedding-only — admission + deadlines + retry budget, no autoscaler:
//    the two initial shards saturate their hosts and shed the flash for its
//    entire duration while three machines stay idle,
//  * autoscale — the same controls plus the closed loop: admission shed
//    state nudges the skew detector, the planner splits the hot range onto
//    the idle machines, and within a few control periods the flash is
//    served, not shed — windowed p99 back inside the SLO,
//  * copy-budget — the same loop with a near-zero copy budget: every
//    reshape's copy stall would blow the SLO, so the executor defers them
//    all and the run degenerates to shedding-only. The budget is real.
//
// --smoke runs the autoscale case twice with the same seed (digests must
// match — the determinism gate) plus the shedding-only baseline, and exits
// nonzero unless the hot shard split, the baseline shed >=10x more at the
// hot shard, and the autoscale run's post-settle windowed p99 is inside the
// SLO. It writes no record: only the full run writes
// results/BENCH_ab10.json.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "quicksand/autoscale/autoscaler.h"
#include "quicksand/cluster/metrics.h"
#include "quicksand/common/bytes.h"
#include "quicksand/overload/admission.h"
#include "quicksand/sched/local_reactor.h"
#include "quicksand/serving/kv_frontend.h"
#include "quicksand/serving/workload.h"
#include "quicksand/trace/bench_trace.h"

namespace quicksand {
namespace {

constexpr int kMachines = 6;  // m0 frontend + 5 shard hosts
constexpr int kCoresPerMachine = 2;
constexpr Duration kServiceTime = Duration::Micros(50);
constexpr Duration kSlo = Duration::Millis(2);
constexpr Duration kRun = Duration::Millis(160);
constexpr Duration kDrain = Duration::Millis(60);
constexpr Duration kFlashStart = Duration::Millis(30);
constexpr Duration kFlashEnd = Duration::Millis(130);
// The frontend starts with 2 shards on 2 hosts; 3 hosts are idle slack.
constexpr int kInitialShards = 2;
constexpr double kPerHostQps = kCoresPerMachine * 1e9 / 50e3;   // 40k
constexpr double kBaseQps = 40000.0;                            // ~1x 2 hosts
constexpr double kFlashMultiplier = 3.5;                        // 140k total
// 70% of flash arrivals hit 32 viral keys, whose hashes scatter across the
// range space — splittable heat, unlike a single molten key.
constexpr double kFlashKeyFraction = 0.7;
constexpr uint64_t kFlashKeys = 32;
// Post-settle latency window: the last 30ms of the flash.
constexpr Duration kSettleWindow = Duration::Millis(30);

enum class Mode { kSheddingOnly, kAutoscale, kCopyBudgetZero };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kSheddingOnly:
      return "shed-only";
    case Mode::kAutoscale:
      return "autoscale";
    case Mode::kCopyBudgetZero:
      return "copy-budget0";
  }
  return "?";
}

struct RunResult {
  int64_t offered = 0;
  int64_t ok_in_slo = 0;
  int64_t ok_late = 0;
  int64_t failed = 0;
  int64_t sheds_seen = 0;
  int64_t retries = 0;
  int64_t moved_reroutes = 0;
  int64_t hot_shard_sheds = 0;  // max cumulative sheds over any one shard
  int shards_final = 0;
  int64_t splits = 0;
  int64_t merges = 0;
  int64_t migrations = 0;
  int64_t deferred = 0;
  double goodput_qps = 0.0;       // lifetime, within-SLO completions
  Duration settle_p99 = Duration::Zero();  // windowed, at flash end
  double settle_goodput_qps = 0.0;
  std::string digest;
};

RunResult RunOne(Mode mode, uint64_t seed, BenchTrace* trace,
                 const std::string& label) {
  Simulator sim;
  Cluster cluster(sim);
  for (int i = 0; i < kMachines; ++i) {
    MachineSpec spec;
    spec.cores = kCoresPerMachine;
    spec.memory_bytes = 2 * kGiB;
    cluster.AddMachine(spec);
  }
  Runtime rt(sim, cluster);
  // Traced unconditionally: the reshape instants (reshape_split,
  // reshape_merge, reshape_migrate, reshape_defer) feed the digest, so the
  // determinism gate covers the autoscale path end to end.
  Tracer local_tracer(sim, cluster.size());
  Tracer* tracer = AttachBenchTracer(trace, rt, label);
  if (tracer == nullptr) {
    tracer = &local_tracer;
    rt.AttachTracer(tracer);
  }

  AdmissionOptions aopt;
  aopt.target = Duration::Micros(200);
  aopt.interval = Duration::Micros(500);
  AdmissionController admission(cluster, aopt);
  rt.AttachAdmission(&admission);

  KvFrontendOptions fopt;
  fopt.shards = kInitialShards;
  fopt.slo = kSlo;
  fopt.service_time = kServiceTime;
  // Window sized so a Merged() snapshot at flash end reports the post-settle
  // tail, not the (intentionally ugly) detection transient.
  fopt.stats_window = kSettleWindow;
  KvFrontend frontend(rt, fopt);
  const Status started = sim.BlockOn(frontend.Start(rt.CtxOn(0)));
  QS_CHECK_MSG(started.ok(), "frontend start failed");

  AutoscalerOptions sopt;
  sopt.period = Duration::Millis(1);
  sopt.executor.slo = kSlo;
  // Shard-count budget ~2x hosts: past it the planner migrates instead of
  // splitting, which bounds split churn under a noisy hot signal.
  sopt.planner.max_shards = 2 * (kMachines - 1);
  // Hot means hot in absolute terms too: a shard must be worth a quarter of
  // a host before skew against the median justifies moving bytes. Without
  // this the zipf head stays "hot" vs an idle-ish median forever and the
  // planner churns on a shard no machine is struggling with.
  sopt.detector.rate_floor_qps = 0.25 * kPerHostQps;
  if (mode == Mode::kCopyBudgetZero) {
    // Any copy stall at all blows this budget: the planner still plans,
    // the executor defers every action.
    sopt.executor.max_copy_fraction_of_slo = 1e-9;
  }
  Autoscaler autoscaler(rt, frontend, sopt);
  autoscaler.AttachAdmission(&admission);
  std::vector<std::unique_ptr<LocalReactor>> reactors;
  if (mode != Mode::kSheddingOnly) {
    // Full wiring: reactors turn local CPU pressure into nudges (the shards
    // are pinned serving state — splitting, not evicting, is the lever).
    reactors = StartLocalReactors(rt);
    for (auto& reactor : reactors) {
      reactor->AttachOverload(&admission);
      reactor->AttachAutoscaler(&autoscaler);
    }
    autoscaler.Start();
  }

  ClusterMetrics metrics(sim, cluster, Duration::Millis(10));
  metrics.AttachServing(&frontend);
  metrics.AttachAutoscale(&autoscaler);
  metrics.Start();

  WorkloadOptions wopt;
  wopt.base_qps = kBaseQps;
  wopt.duration = kRun;
  wopt.seed = seed;
  wopt.keys = 512;
  wopt.zipf_s = 0.9;
  wopt.read_fraction = 0.9;
  wopt.flash_multiplier = kFlashMultiplier;
  wopt.flash_start = sim.Now() + kFlashStart;
  wopt.flash_end = sim.Now() + kFlashEnd;
  wopt.flash_key_fraction = kFlashKeyFraction;
  wopt.flash_key_begin = 0;
  wopt.flash_key_end = kFlashKeys;
  OpenLoopLoadGen gen(sim, frontend, wopt);
  sim.Spawn(gen.Run(), "loadgen");

  // Run to the end of the flash and snapshot the windowed tail there: this
  // is the "after the split settles" latency the SLO gate judges.
  sim.RunFor(kFlashEnd);
  RunResult r;
  const LatencyHistogram settle = frontend.latency().Merged(sim.Now());
  if (settle.count() > 0) {
    r.settle_p99 = settle.Percentile(99);
  }
  r.settle_goodput_qps = frontend.SampleServing(sim.Now()).goodput_qps;

  sim.RunFor(kRun - kFlashEnd + kDrain);
  const auto accounted = [&frontend] {
    return frontend.ok_in_slo() + frontend.ok_late() + frontend.failed();
  };
  for (int i = 0; i < 200 && accounted() < frontend.offered(); ++i) {
    sim.RunFor(Duration::Millis(20));
  }
  QS_CHECK_MSG(accounted() == frontend.offered(),
               "requests still in flight after drain");

  r.offered = frontend.offered();
  r.ok_in_slo = frontend.ok_in_slo();
  r.ok_late = frontend.ok_late();
  r.failed = frontend.failed();
  r.sheds_seen = frontend.sheds_seen();
  r.retries = frontend.retries();
  r.moved_reroutes = frontend.moved_reroutes();
  r.splits = autoscaler.splits();
  r.merges = autoscaler.merges();
  r.migrations = autoscaler.migrations();
  r.deferred = autoscaler.deferred();
  r.goodput_qps = static_cast<double>(r.ok_in_slo) /
                  (static_cast<double>(kRun.nanos()) / 1e9);
  const auto shards = frontend.SampleShards(sim.Now());
  r.shards_final = static_cast<int>(shards.size());
  std::ostringstream digest;
  digest << r.offered << '|' << r.ok_in_slo << '|' << r.ok_late << '|'
         << r.failed << '|' << r.sheds_seen << '|' << r.retries << '|'
         << r.moved_reroutes << '|' << r.splits << '|' << r.merges << '|'
         << r.migrations << '|' << r.deferred << '|'
         << autoscaler.reshape_failures() << '|' << r.shards_final << '|';
  for (const auto& shard : shards) {
    r.hot_shard_sheds = std::max(r.hot_shard_sheds, shard.sheds_total);
    digest << shard.range_begin << ',' << shard.range_end << ','
           << shard.machine << ',' << shard.arrivals_total << ','
           << shard.sheds_total << ';';
  }
  digest << '|' << r.hot_shard_sheds << '|' << r.settle_p99.nanos() << '|'
         << admission.sheds() << '|' << admission.probes() << '|'
         << metrics.autoscale_shard_count().points().size() << '|'
         << sim.Now().nanos() << '|' << std::hex << tracer->Digest();
  r.digest = digest.str();
  return r;
}

void PrintRow(const char* which, const RunResult& r) {
  std::printf(
      "%12s | %9.0f %9s | %7lld %7lld | %3d %6lld %6lld %5lld %5lld\n", which,
      r.goodput_qps, r.settle_p99.ToString().c_str(),
      static_cast<long long>(r.hot_shard_sheds),
      static_cast<long long>(r.failed), r.shards_final,
      static_cast<long long>(r.splits), static_cast<long long>(r.merges),
      static_cast<long long>(r.migrations),
      static_cast<long long>(r.deferred));
}

struct JsonRow {
  std::string scenario;
  std::string mode;
  double goodput_qps;
  double settle_p99_us;
  int64_t hot_shard_sheds;
  int shards_final;
  int64_t splits;
};

void WriteJson(const std::vector<JsonRow>& rows) {
  std::filesystem::create_directories("results");
  std::ofstream out("results/BENCH_ab10.json");
  out << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    out << "  {\"scenario\": \"" << rows[i].scenario << "\", \"mode\": \""
        << rows[i].mode << "\", \"goodput_qps\": " << rows[i].goodput_qps
        << ", \"settle_p99_us\": " << rows[i].settle_p99_us
        << ", \"hot_shard_sheds\": " << rows[i].hot_shard_sheds
        << ", \"shards_final\": " << rows[i].shards_final
        << ", \"splits\": " << rows[i].splits << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::printf("ab10: wrote %zu rows to results/BENCH_ab10.json\n", rows.size());
}

JsonRow Row(const std::string& scenario, Mode mode, const RunResult& r) {
  return JsonRow{scenario,
                 ModeName(mode),
                 r.goodput_qps,
                 static_cast<double>(r.settle_p99.nanos()) / 1e3,
                 r.hot_shard_sheds,
                 r.shards_final,
                 r.splits};
}

int Smoke(BenchTrace* trace) {
  const RunResult auto1 = RunOne(Mode::kAutoscale, 1, trace, "smoke_auto_run1");
  const RunResult auto2 = RunOne(Mode::kAutoscale, 1, trace, "smoke_auto_run2");
  const RunResult base = RunOne(Mode::kSheddingOnly, 1, trace, "smoke_base");
  std::printf(
      "ab10 smoke: flash %.1fx on %llu keys, %d hosts\n"
      "  shed-only: goodput %.0f qps, settle p99 %s, hot-shard sheds %lld\n"
      "  autoscale: goodput %.0f qps, settle p99 %s, hot-shard sheds %lld, "
      "%d shards (%lld splits)\n",
      kFlashMultiplier, static_cast<unsigned long long>(kFlashKeys),
      kMachines - 1, base.goodput_qps, base.settle_p99.ToString().c_str(),
      static_cast<long long>(base.hot_shard_sheds), auto1.goodput_qps,
      auto1.settle_p99.ToString().c_str(),
      static_cast<long long>(auto1.hot_shard_sheds), auto1.shards_final,
      static_cast<long long>(auto1.splits));
  if (auto1.digest != auto2.digest) {
    std::printf("ab10 smoke: FAIL — same-seed runs diverged\n  first:  %s\n"
                "  second: %s\n",
                auto1.digest.c_str(), auto2.digest.c_str());
    return 1;
  }
  // The hot shard actually split onto the idle machines.
  if (auto1.splits < 1 || auto1.shards_final <= kInitialShards) {
    std::printf("ab10 smoke: FAIL — no hot-shard split (%lld splits, %d "
                "shards)\n",
                static_cast<long long>(auto1.splits), auto1.shards_final);
    return 1;
  }
  // Shedding-only pays at the hot shard for the whole flash; autoscale only
  // during detection + settle.
  if (base.hot_shard_sheds <
      10 * std::max<int64_t>(auto1.hot_shard_sheds, 1)) {
    std::printf("ab10 smoke: FAIL — autoscale did not relieve the hot shard "
                "(baseline %lld sheds vs autoscale %lld)\n",
                static_cast<long long>(base.hot_shard_sheds),
                static_cast<long long>(auto1.hot_shard_sheds));
    return 1;
  }
  // After the splits settle, the tail of what is served is inside the SLO.
  if (auto1.settle_p99 <= Duration::Zero() || auto1.settle_p99 > kSlo) {
    std::printf("ab10 smoke: FAIL — post-settle p99 %s outside the %s SLO\n",
                auto1.settle_p99.ToString().c_str(), kSlo.ToString().c_str());
    return 1;
  }
  // Reshaping must also WIN: more within-SLO work than shedding the flash.
  if (auto1.ok_in_slo <= base.ok_in_slo) {
    std::printf("ab10 smoke: FAIL — autoscale served no more than shedding "
                "(%lld vs %lld in-SLO)\n",
                static_cast<long long>(auto1.ok_in_slo),
                static_cast<long long>(base.ok_in_slo));
    return 1;
  }
  std::printf("ab10 smoke: PASS (deterministic; split relieves the hot "
              "shard, settle p99 inside SLO)\n");
  return 0;
}

void Main(BenchTrace* trace) {
  std::printf("=== A10: autoscale — split the flash crowd instead of "
              "shedding it ===\n");
  std::printf(
      "(%d machines, %d cores each; %d initial shards on 2 hosts, 3 idle; "
      "%s service, %s SLO; per-host capacity ~%.0f qps)\n"
      "(base %.0f qps zipf(0.9); flash x%.1f for %s with %.0f%% of arrivals "
      "on %llu viral keys)\n\n",
      kMachines, kCoresPerMachine, kInitialShards,
      kServiceTime.ToString().c_str(), kSlo.ToString().c_str(), kPerHostQps,
      kBaseQps, kFlashMultiplier, (kFlashEnd - kFlashStart).ToString().c_str(),
      100.0 * kFlashKeyFraction, static_cast<unsigned long long>(kFlashKeys));

  std::printf("%12s | %9s %9s | %7s %7s | %3s %6s %6s %5s %5s\n", "mode",
              "goodput", "stl_p99", "hotshed", "failed", "sh", "splits",
              "merges", "migr", "defer");
  std::vector<JsonRow> json;
  const RunResult base = RunOne(Mode::kSheddingOnly, 1, trace, "flash_base");
  const RunResult scaled = RunOne(Mode::kAutoscale, 1, trace, "flash_auto");
  const RunResult capped =
      RunOne(Mode::kCopyBudgetZero, 1, trace, "flash_capped");
  PrintRow(ModeName(Mode::kSheddingOnly), base);
  PrintRow(ModeName(Mode::kAutoscale), scaled);
  PrintRow(ModeName(Mode::kCopyBudgetZero), capped);
  json.push_back(Row("flash", Mode::kSheddingOnly, base));
  json.push_back(Row("flash", Mode::kAutoscale, scaled));
  json.push_back(Row("flash", Mode::kCopyBudgetZero, capped));
  std::printf(
      "\n(shed-only pays at the hot shard for the whole flash while 3 hosts "
      "idle; autoscale splits the hot range onto them within a few control "
      "periods — sheds stop and the settle-window p99 is back inside the "
      "SLO; the remnants do NOT merge back afterwards: load-median split "
      "points leave the post-flash shards evenly loaded, and merge triggers "
      "on relative cold, not over-sharding — benign by design; with a zero "
      "copy budget every planned reshape is deferred, which degenerates to "
      "shed-only: the executor really does refuse SLO-hostile copies)\n");
  WriteJson(json);
}

}  // namespace
}  // namespace quicksand

int main(int argc, char** argv) {
  quicksand::BenchTrace trace = quicksand::BenchTrace::FromArgs(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return quicksand::Smoke(&trace);
  }
  quicksand::Main(&trace);
  return 0;
}
