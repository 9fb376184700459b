// Ablation A9: overload control and graceful degradation under an open-loop
// serving workload.
//
// An open-loop KV frontend (serving/) drives FencedKvProclet shards at a
// fixed offered rate, independent of completions — the regime where a
// saturated server builds a standing queue and, uncontrolled, collapses:
// every queued request is dead on arrival by the time it runs, so goodput
// (completions within SLO) falls toward zero even though the CPUs stay
// 100% busy. The bench sweeps offered load with the overload controls off
// and on:
//
//  * off  — no deadline stamping, no admission control, no retry budget:
//           past saturation, goodput collapses and p99 grows without bound,
//  * on   — deadlines propagate end to end, CoDel-style admission sheds the
//           excess at the shard's host, and retries ride a token budget:
//           goodput plateaus near capacity and the p99 of what IS served
//           stays within the SLO.
//
// Two more scenarios exercise the remaining levers: a diurnal wave with a
// flash crowd (controls absorb the spike by shedding only during it), and
// degraded reads (shed reads fall back to the replication backup within a
// bounded staleness, converting rejections into slightly-stale answers).
//
// --smoke runs the 2x-capacity point twice with controls on (same-seed
// digests must match — the determinism gate) plus once with controls off,
// and exits nonzero unless collapse-without/plateau-with holds. It writes
// no record: only the full run writes results/BENCH_ab9.json, with
// {offered, goodput, p99} rows.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "quicksand/cluster/metrics.h"
#include "quicksand/common/bytes.h"
#include "quicksand/durability/replication.h"
#include "quicksand/overload/admission.h"
#include "quicksand/serving/kv_frontend.h"
#include "quicksand/serving/workload.h"
#include "quicksand/trace/bench_trace.h"

namespace quicksand {
namespace {

constexpr int kMachines = 3;  // m0 frontend + 2 shard hosts
constexpr int kCoresPerMachine = 2;
constexpr Duration kServiceTime = Duration::Micros(50);
constexpr Duration kSlo = Duration::Millis(2);
constexpr Duration kRun = Duration::Millis(120);
constexpr Duration kDrain = Duration::Millis(60);
// 2 hosts x 2 cores / 50us of work per request.
constexpr double kCapacityQps =
    (kMachines - 1) * kCoresPerMachine * 1e9 / 50e3;

struct Controls {
  bool deadline = false;
  bool admission = false;
  bool budget = false;
  bool degraded = false;
};

constexpr Controls kAllOff{};
constexpr Controls kAllOn{true, true, true, false};

struct RunResult {
  int64_t offered = 0;
  int64_t ok_in_slo = 0;
  int64_t ok_late = 0;
  int64_t failed = 0;
  int64_t sheds_seen = 0;      // frontend-observed shed attempts
  int64_t deadline_seen = 0;   // frontend-observed deadline rejections
  int64_t stale_fallbacks = 0;
  int64_t retries = 0;
  int64_t budget_denied = 0;
  int64_t rt_sheds = 0;  // runtime-side counters (trace-instant mirrors)
  int64_t rt_deadline_rejected = 0;
  int64_t rt_stale_reads = 0;
  double goodput_qps = 0.0;
  Duration p50 = Duration::Zero();
  Duration p99 = Duration::Zero();
  Duration p999 = Duration::Zero();
  std::string digest;
};

RunResult RunOne(double offered_qps, Controls controls, uint64_t seed,
                 BenchTrace* trace, const std::string& label,
                 double flash_multiplier = 1.0,
                 double diurnal_amplitude = 0.0) {
  Simulator sim;
  Cluster cluster(sim);
  for (int i = 0; i < kMachines; ++i) {
    MachineSpec spec;
    spec.cores = kCoresPerMachine;
    spec.memory_bytes = 2 * kGiB;
    cluster.AddMachine(spec);
  }
  Runtime rt(sim, cluster);
  // Traced unconditionally: the overload instants (rpc_shed,
  // deadline_expired, stale_serve) feed the digest, so the determinism gate
  // covers the overload path end to end.
  Tracer local_tracer(sim, cluster.size());
  Tracer* tracer = AttachBenchTracer(trace, rt, label);
  if (tracer == nullptr) {
    tracer = &local_tracer;
    rt.AttachTracer(tracer);
  }

  // The admission knobs scale with the SLO: the grace interval re-grants a
  // window of unchecked queue growth on every reset, so it must be small
  // against the latency budget or admitted-at-the-peak requests miss it.
  // The delay target leaves headroom for shard skew: hash-range sharding
  // splits the zipf mass unevenly, and the hotter machine's admitted tail
  // rides its delay target — 200us put p99 a hair over the 2ms SLO.
  AdmissionOptions aopt;
  aopt.target = Duration::Micros(150);
  aopt.interval = Duration::Micros(500);
  AdmissionController admission(cluster, aopt);
  if (controls.admission) {
    rt.AttachAdmission(&admission);
  }
  ReplicationManager::Options ropt;
  ropt.ack = AckMode::kFireAndForget;
  ReplicationManager replication(rt, ropt);

  KvFrontendOptions fopt;
  fopt.shards = kMachines - 1;
  fopt.slo = kSlo;
  fopt.service_time = kServiceTime;
  fopt.deadline_propagation = controls.deadline;
  fopt.retry_budget = controls.budget;
  fopt.degraded_reads = controls.degraded;
  // Wide enough to cover the run plus the longest uncontrolled drain, so
  // Merged() below reports lifetime quantiles.
  fopt.stats_window = Duration::Seconds(4);
  KvFrontend frontend(rt, fopt);
  if (controls.degraded) {
    frontend.AttachReplication(&replication);
  }
  const Status started = sim.BlockOn(frontend.Start(rt.CtxOn(0)));
  QS_CHECK_MSG(started.ok(), "frontend start failed");

  ClusterMetrics metrics(sim, cluster, Duration::Millis(10));
  metrics.AttachServing(&frontend);
  metrics.Start();

  WorkloadOptions wopt;
  wopt.base_qps = offered_qps;
  wopt.duration = kRun;
  wopt.seed = seed;
  wopt.keys = 512;
  wopt.zipf_s = 0.9;
  wopt.read_fraction = 0.9;
  wopt.diurnal_amplitude = diurnal_amplitude;
  wopt.diurnal_period = kRun;
  if (flash_multiplier > 1.0) {
    wopt.flash_multiplier = flash_multiplier;
    wopt.flash_start = sim.Now() + Duration::Millis(40);
    wopt.flash_end = sim.Now() + Duration::Millis(70);
  }
  OpenLoopLoadGen gen(sim, frontend, wopt);
  sim.Spawn(gen.Run(), "loadgen");
  sim.RunFor(kRun + kDrain);
  // An uncontrolled overload run ends with a deep standing queue; every
  // queued request still completes (arbitrarily late — that IS the
  // collapse), so run until all arrivals are accounted before tearing the
  // world down.
  const auto accounted = [&frontend] {
    return frontend.ok_in_slo() + frontend.ok_late() + frontend.failed();
  };
  for (int i = 0; i < 200 && accounted() < frontend.offered(); ++i) {
    sim.RunFor(Duration::Millis(20));
  }
  QS_CHECK_MSG(accounted() == frontend.offered(),
               "requests still in flight after drain");

  RunResult r;
  r.offered = frontend.offered();
  r.ok_in_slo = frontend.ok_in_slo();
  r.ok_late = frontend.ok_late();
  r.failed = frontend.failed();
  r.sheds_seen = frontend.sheds_seen();
  r.deadline_seen = frontend.deadline_rejections_seen();
  r.stale_fallbacks = frontend.stale_fallbacks();
  r.retries = frontend.retries();
  r.budget_denied = frontend.budget().denied();
  r.rt_sheds = rt.stats().shed_invocations;
  r.rt_deadline_rejected = rt.stats().deadline_rejected_invocations;
  r.rt_stale_reads = rt.stats().stale_reads;
  r.goodput_qps = static_cast<double>(r.ok_in_slo) /
                  (static_cast<double>(kRun.nanos()) / 1e9);
  const LatencyHistogram lat = frontend.latency().Merged(sim.Now());
  if (lat.count() > 0) {
    r.p50 = lat.Percentile(50);
    r.p99 = lat.Percentile(99);
    r.p999 = lat.Percentile(99.9);
  }

  std::ostringstream digest;
  digest << r.offered << '|' << r.ok_in_slo << '|' << r.ok_late << '|'
         << r.failed << '|' << r.sheds_seen << '|' << r.deadline_seen << '|'
         << r.stale_fallbacks << '|' << r.retries << '|' << r.budget_denied
         << '|' << r.rt_sheds << '|' << r.rt_deadline_rejected << '|'
         << r.rt_stale_reads << '|' << admission.sheds() << '|'
         << admission.probes() << '|' << r.p50.nanos() << '|'
         << r.p99.nanos() << '|' << r.p999.nanos() << '|'
         << metrics.serving_goodput_qps().points().size() << '|'
         << sim.Now().nanos() << '|' << std::hex << tracer->Digest();
  r.digest = digest.str();
  return r;
}

void PrintRow(double offered, const char* which, const RunResult& r) {
  std::printf("%8.0f %4s | %9.0f %7lld %7lld | %9s %9s | %7lld %7lld %7lld\n",
              offered, which, r.goodput_qps,
              static_cast<long long>(r.ok_late),
              static_cast<long long>(r.failed), r.p99.ToString().c_str(),
              r.p999.ToString().c_str(), static_cast<long long>(r.sheds_seen),
              static_cast<long long>(r.deadline_seen),
              static_cast<long long>(r.budget_denied));
}

struct JsonRow {
  std::string scenario;
  double offered_qps;
  bool controls_on;
  double goodput_qps;
  double p99_us;
};

void WriteJson(const std::vector<JsonRow>& rows) {
  std::filesystem::create_directories("results");
  std::ofstream out("results/BENCH_ab9.json");
  out << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    out << "  {\"scenario\": \"" << rows[i].scenario
        << "\", \"offered_qps\": " << rows[i].offered_qps
        << ", \"controls\": \"" << (rows[i].controls_on ? "on" : "off")
        << "\", \"goodput_qps\": " << rows[i].goodput_qps
        << ", \"p99_us\": " << rows[i].p99_us << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::printf("ab9: wrote %zu rows to results/BENCH_ab9.json\n", rows.size());
}

JsonRow Row(const std::string& scenario, double offered, bool on,
            const RunResult& r) {
  return JsonRow{scenario, offered, on, r.goodput_qps,
                 static_cast<double>(r.p99.nanos()) / 1e3};
}

int Smoke(BenchTrace* trace) {
  const double offered = 2.0 * kCapacityQps;
  const RunResult on1 = RunOne(offered, kAllOn, 1, trace, "smoke_on_run1");
  const RunResult on2 = RunOne(offered, kAllOn, 1, trace, "smoke_on_run2");
  const RunResult off = RunOne(offered, kAllOff, 1, trace, "smoke_off");
  std::printf("ab9 smoke: offered %.0f qps (capacity %.0f)\n"
              "  controls on:  goodput %.0f qps, p99 %s, shed %lld, "
              "deadline-rejected %lld\n"
              "  controls off: goodput %.0f qps, p99 %s\n",
              offered, kCapacityQps, on1.goodput_qps, on1.p99.ToString().c_str(),
              static_cast<long long>(on1.sheds_seen),
              static_cast<long long>(on1.deadline_seen), off.goodput_qps,
              off.p99.ToString().c_str());
  if (on1.digest != on2.digest) {
    std::printf("ab9 smoke: FAIL — same-seed runs diverged\n  first:  %s\n"
                "  second: %s\n",
                on1.digest.c_str(), on2.digest.c_str());
    return 1;
  }
  // Controls engaged: admission shed something at 2x capacity, and the
  // runtime-side counter agrees with the frontend's observation.
  if (on1.sheds_seen <= 0 || on1.rt_sheds < on1.sheds_seen) {
    std::printf("ab9 smoke: FAIL — admission control never engaged "
                "(frontend %lld, runtime %lld)\n",
                static_cast<long long>(on1.sheds_seen),
                static_cast<long long>(on1.rt_sheds));
    return 1;
  }
  if (off.sheds_seen != 0 || off.deadline_seen != 0) {
    std::printf("ab9 smoke: FAIL — controls-off run shed or rejected\n");
    return 1;
  }
  // Collapse without, plateau with: the controlled run must serve several
  // times more within-SLO work, and its tail must be far tighter.
  if (on1.ok_in_slo < 4 * std::max<int64_t>(off.ok_in_slo, 1)) {
    std::printf("ab9 smoke: FAIL — no plateau (on %lld in-SLO vs off %lld)\n",
                static_cast<long long>(on1.ok_in_slo),
                static_cast<long long>(off.ok_in_slo));
    return 1;
  }
  if (off.p99 <= kSlo || on1.p99 >= off.p99) {
    std::printf("ab9 smoke: FAIL — uncontrolled tail did not collapse "
                "(off p99 %s, on p99 %s)\n",
                off.p99.ToString().c_str(), on1.p99.ToString().c_str());
    return 1;
  }
  if (on1.p99 > kSlo) {
    std::printf("ab9 smoke: FAIL — controlled p99 %s exceeds the %s SLO\n",
                on1.p99.ToString().c_str(), kSlo.ToString().c_str());
    return 1;
  }
  std::printf("ab9 smoke: PASS (deterministic; collapse without controls, "
              "plateau with)\n");
  return 0;
}

void Main(BenchTrace* trace) {
  std::printf("=== A9: overload control under open-loop serving ===\n");
  std::printf("(%d machines, %d cores each; %d shards, %s service, %s SLO; "
              "capacity ~%.0f qps; zipf(0.9) keys, 90%% reads)\n\n",
              kMachines, kCoresPerMachine, kMachines - 1,
              kServiceTime.ToString().c_str(), kSlo.ToString().c_str(),
              kCapacityQps);
  std::vector<JsonRow> json;

  std::printf("--- offered load sweep: controls off vs on ---\n");
  std::printf("%8s %4s | %9s %7s %7s | %9s %9s | %7s %7s %7s\n", "offered",
              "ctl", "goodput", "late", "failed", "p99", "p999", "shed",
              "dl_rej", "denied");
  for (const double factor : {0.5, 1.0, 1.5, 2.0, 3.0}) {
    const double offered = factor * kCapacityQps;
    const std::string suffix = std::to_string(static_cast<int>(factor * 100));
    const RunResult off =
        RunOne(offered, kAllOff, 1, trace, "sweep_off_" + suffix);
    const RunResult on = RunOne(offered, kAllOn, 1, trace, "sweep_on_" + suffix);
    PrintRow(offered, "off", off);
    PrintRow(offered, "on", on);
    json.push_back(Row("sweep", offered, false, off));
    json.push_back(Row("sweep", offered, true, on));
  }
  std::printf("(past capacity the uncontrolled tail is the queue itself — "
              "everything completes, arbitrarily late; with controls the "
              "excess is shed at admission and what is admitted meets the "
              "SLO)\n\n");

  std::printf("--- diurnal wave + flash crowd (base 0.6x, flash 4x for "
              "30ms) ---\n");
  std::printf("%8s %4s | %9s %7s %7s | %9s %9s | %7s %7s %7s\n", "base",
              "ctl", "goodput", "late", "failed", "p99", "p999", "shed",
              "dl_rej", "denied");
  const double base = 0.6 * kCapacityQps;
  const RunResult flash_off = RunOne(base, kAllOff, 1, trace, "flash_off",
                                     /*flash_multiplier=*/4.0,
                                     /*diurnal_amplitude=*/0.3);
  const RunResult flash_on = RunOne(base, kAllOn, 1, trace, "flash_on",
                                    /*flash_multiplier=*/4.0,
                                    /*diurnal_amplitude=*/0.3);
  PrintRow(base, "off", flash_off);
  PrintRow(base, "on", flash_on);
  json.push_back(Row("flash", base, false, flash_off));
  json.push_back(Row("flash", base, true, flash_on));
  std::printf("(the flash crowd alone saturates; shedding is confined to the "
              "spike — before and after it nothing is rejected)\n\n");

  std::printf("--- degraded reads at 2x capacity (controls on) ---\n");
  Controls degraded = kAllOn;
  degraded.degraded = true;
  const RunResult deg_off =
      RunOne(2.0 * kCapacityQps, kAllOn, 1, trace, "degraded_off");
  const RunResult deg_on =
      RunOne(2.0 * kCapacityQps, degraded, 1, trace, "degraded_on");
  const auto served = [](const RunResult& r) {
    return static_cast<double>(r.ok_in_slo + r.ok_late) /
           static_cast<double>(r.offered > 0 ? r.offered : 1);
  };
  std::printf("  stale fallback off: %5.1f%% of requests served, %7lld "
              "rejected\n",
              100.0 * served(deg_off), static_cast<long long>(deg_off.failed));
  std::printf("  stale fallback on:  %5.1f%% of requests served, %7lld "
              "rejected, %lld answered from the backup (bounded staleness)\n",
              100.0 * served(deg_on), static_cast<long long>(deg_on.failed),
              static_cast<long long>(deg_on.stale_fallbacks));
  json.push_back(Row("degraded", 2.0 * kCapacityQps, true, deg_on));
  std::printf("(a shed read is not a lost read when a replica exists: the "
              "backup answers within its staleness bound)\n\n");

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
