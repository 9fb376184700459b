// Ablation A12: the memoization tier — content-addressed result caching on
// harvestable storage proclets, with approximation under pressure.
//
// Three scenarios:
//
//  * zipf     — an open-loop KV serving workload with a Zipf key popularity
//               sweep, memo off vs on. Repeat reads of hot keys are answered
//               from the cache tier without spending shard CPU, so goodput
//               with the memo on clears the shard-CPU capacity ceiling that
//               caps the memo-off run. Reported: hit rate, goodput, p99.
//  * harvest  — cache shards co-located with a KV shard on a machine that
//               gets a revocation notice. With the harvester wired into the
//               evacuator, the cache is dropped instantly (zero wire cost)
//               and the KV shard clears the deadline; the ablation
//               (drop_harvestable off) ships recomputable cache bytes first,
//               smallest-first, and the KV shard dies with the machine —
//               acked writes lost. Cache-first harvesting is the difference
//               between "lost some hit rate" and "lost data".
//  * stale    — degraded mode at 3x capacity: when admission control sheds
//               a read, the frontend serves a bounded-staleness memo answer
//               instead of failing the request. Converts rejections into
//               slightly-stale service while the p99 of what is served
//               stays inside the SLO.
//
// --smoke runs the zipf point twice at the same seed (digests must match),
// the harvest pair, and the stale trio, gating on: determinism, >= 70% hit
// rate, zero acked-write loss with harvesting (and loss in the ablation),
// and the stale mode keeping p99 in SLO while failing fewer requests than
// the memo-off baseline. It writes no record: only the full run writes
// results/BENCH_ab12.json.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "quicksand/cluster/metrics.h"
#include "quicksand/common/bytes.h"
#include "quicksand/memo/memo_harvester.h"
#include "quicksand/memo/memoized.h"
#include "quicksand/overload/admission.h"
#include "quicksand/sched/evacuator.h"
#include "quicksand/serving/kv_frontend.h"
#include "quicksand/serving/workload.h"
#include "quicksand/trace/bench_trace.h"

namespace quicksand {
namespace {

constexpr int kMachines = 5;  // m0 frontend; 2 become KV hosts, 2 cache hosts
constexpr int kCoresPerMachine = 2;
constexpr Duration kServiceTime = Duration::Micros(50);
constexpr Duration kSlo = Duration::Millis(2);
constexpr Duration kRun = Duration::Millis(80);
constexpr Duration kDrain = Duration::Millis(60);
// 2 KV hosts x 2 cores / 50us of work per request; memo hits spend none of it.
constexpr double kCapacityQps = 2 * kCoresPerMachine * 1e9 / 50e3;

enum class MemoMode { kOff, kFreshOnly, kStale };

struct ServingResult {
  int64_t offered = 0;
  int64_t ok_in_slo = 0;
  int64_t ok_late = 0;
  int64_t failed = 0;
  int64_t sheds_seen = 0;
  int64_t memo_serves = 0;
  int64_t memo_stale_serves = 0;
  int64_t memo_hits = 0;
  int64_t memo_stale_hits = 0;
  int64_t memo_misses = 0;
  int64_t memo_inserts = 0;
  double hit_rate = 0.0;
  double goodput_qps = 0.0;
  Duration p99 = Duration::Zero();
  std::string digest;
};

ServingResult RunServing(double offered_qps, MemoMode mode, uint64_t seed,
                         BenchTrace* trace, const std::string& label,
                         double read_fraction = 0.95) {
  Simulator sim;
  Cluster cluster(sim);
  for (int i = 0; i < kMachines; ++i) {
    MachineSpec spec;
    spec.cores = kCoresPerMachine;
    spec.memory_bytes = 2 * kGiB;
    cluster.AddMachine(spec);
  }
  Runtime rt(sim, cluster);
  Tracer local_tracer(sim, cluster.size());
  Tracer* tracer = AttachBenchTracer(trace, rt, label);
  if (tracer == nullptr) {
    tracer = &local_tracer;
    rt.AttachTracer(tracer);
  }

  // Tight control loop: at 3x offered load a 500us adjustment interval lets
  // shard queues overshoot by dozens of requests between clamps, and that
  // oscillation IS the served-p99 tail.
  AdmissionOptions aopt;
  aopt.target = Duration::Micros(100);
  aopt.interval = Duration::Micros(250);
  AdmissionController admission(cluster, aopt);
  rt.AttachAdmission(&admission);

  KvFrontendOptions fopt;
  fopt.shards = 2;
  fopt.slo = kSlo;
  fopt.service_time = kServiceTime;
  fopt.stats_window = Duration::Seconds(4);
  fopt.memo_reads = mode != MemoMode::kOff;
  fopt.memo_staleness =
      mode == MemoMode::kStale ? Duration::Millis(20) : Duration::Zero();
  KvFrontend frontend(rt, fopt);
  const Status started = sim.BlockOn(frontend.Start(rt.CtxOn(0)));
  QS_CHECK_MSG(started.ok(), "frontend start failed");

  // The cache tier lives on the machines that host no KV shard, so memo
  // lookups never queue behind the overloaded serving CPUs.
  std::vector<MachineId> kv_hosts;
  for (const auto& shard : frontend.shards()) {
    kv_hosts.push_back(rt.LocationOf(shard.id()));
  }
  std::vector<MachineId> memo_hosts;
  for (MachineId m = 1; m < cluster.size(); ++m) {
    if (std::find(kv_hosts.begin(), kv_hosts.end(), m) == kv_hosts.end()) {
      memo_hosts.push_back(m);
    }
  }
  QS_CHECK_MSG(!memo_hosts.empty(), "no machine left for the cache tier");
  MemoDirectoryOptions mopt;
  mopt.shards = 4;
  mopt.hosts = memo_hosts;
  MemoDirectory dir(rt, mopt);
  QS_CHECK_MSG(sim.BlockOn(dir.Start(rt.CtxOn(0))).ok(), "memo start failed");
  if (mode != MemoMode::kOff) {
    frontend.AttachMemo(&dir);
  }

  ClusterMetrics metrics(sim, cluster, Duration::Millis(10));
  metrics.AttachServing(&frontend);
  metrics.AttachMemo(&dir);
  metrics.Start();

  WorkloadOptions wopt;
  wopt.base_qps = offered_qps;
  wopt.duration = kRun;
  wopt.seed = seed;
  wopt.keys = 256;
  wopt.zipf_s = 1.2;
  wopt.read_fraction = read_fraction;
  OpenLoopLoadGen gen(sim, frontend, wopt);
  sim.Spawn(gen.Run(), "loadgen");
  sim.RunFor(kRun + kDrain);
  const auto accounted = [&frontend] {
    return frontend.ok_in_slo() + frontend.ok_late() + frontend.failed();
  };
  for (int i = 0; i < 200 && accounted() < frontend.offered(); ++i) {
    sim.RunFor(Duration::Millis(20));
  }
  QS_CHECK_MSG(accounted() == frontend.offered(),
               "requests still in flight after drain");

  ServingResult r;
  r.offered = frontend.offered();
  r.ok_in_slo = frontend.ok_in_slo();
  r.ok_late = frontend.ok_late();
  r.failed = frontend.failed();
  r.sheds_seen = frontend.sheds_seen();
  r.memo_serves = frontend.memo_serves();
  r.memo_stale_serves = frontend.memo_stale_serves();
  r.memo_hits = dir.hits();
  r.memo_stale_hits = dir.stale_hits();
  r.memo_misses = dir.misses();
  r.memo_inserts = dir.inserts();
  const int64_t lookups = r.memo_hits + r.memo_stale_hits + r.memo_misses;
  r.hit_rate = lookups > 0 ? static_cast<double>(r.memo_hits + r.memo_stale_hits) /
                                 static_cast<double>(lookups)
                           : 0.0;
  r.goodput_qps = static_cast<double>(r.ok_in_slo) /
                  (static_cast<double>(kRun.nanos()) / 1e9);
  const LatencyHistogram lat = frontend.latency().Merged(sim.Now());
  if (lat.count() > 0) {
    r.p99 = lat.Percentile(99);
  }

  std::ostringstream digest;
  digest << r.offered << '|' << r.ok_in_slo << '|' << r.ok_late << '|'
         << r.failed << '|' << r.sheds_seen << '|' << r.memo_serves << '|'
         << r.memo_stale_serves << '|' << r.memo_hits << '|'
         << r.memo_stale_hits << '|' << r.memo_misses << '|' << r.memo_inserts
         << '|' << dir.cached_bytes() << '|' << r.p99.nanos() << '|'
         << sim.Now().nanos() << '|' << std::hex << tracer->Digest();
  r.digest = digest.str();
  return r;
}

// --- harvest-under-revocation ----------------------------------------------

struct HarvestResult {
  int64_t acked = 0;
  int64_t lost = 0;
  int64_t cache_dropped = 0;        // cache shards dropped by the evacuator
  int64_t cache_bytes_dropped = 0;  // bytes reclaimed without touching the wire
  int64_t evacuated = 0;
  int64_t considered = 0;
  Duration elapsed = Duration::Zero();
  std::string digest;
};

HarvestResult RunHarvest(bool harvest_cache, uint64_t seed, BenchTrace* trace,
                         const std::string& label) {
  Simulator sim;
  Cluster cluster(sim);
  for (int i = 0; i < 4; ++i) {
    MachineSpec spec;
    spec.cores = kCoresPerMachine;
    spec.memory_bytes = 2 * kGiB;
    cluster.AddMachine(spec);
  }
  Runtime rt(sim, cluster);
  Tracer local_tracer(sim, cluster.size());
  Tracer* tracer = AttachBenchTracer(trace, rt, label);
  if (tracer == nullptr) {
    tracer = &local_tracer;
    rt.AttachTracer(tracer);
  }
  FaultInjector faults(sim, cluster);
  rt.AttachFaultInjector(faults);

  // One 4 MiB KV shard, forced onto the victim machine 1.
  KvFrontendOptions fopt;
  fopt.shards = 1;
  fopt.slo = kSlo;
  fopt.service_time = Duration::Micros(10);
  KvFrontend frontend(rt, fopt);
  QS_CHECK_MSG(sim.BlockOn(frontend.Start(rt.CtxOn(0))).ok(),
               "frontend start failed");
  const ProcletId kv_id = frontend.shards()[0].id();
  if (rt.LocationOf(kv_id) != MachineId{1}) {
    QS_CHECK_MSG(
        sim.BlockOn(frontend.MigrateShard(rt.CtxOn(0), kv_id, 1)).ok(),
        "could not co-locate the KV shard with the cache");
  }

  // Eight cache shards on the same machine, each filled to ~1 MiB of heap
  // (64 KiB base + 16 x 64 KiB entries) — individually smaller than the KV
  // shard, so the ablation's smallest-first order ships ALL of them before
  // the KV shard gets a byte onto the wire.
  MemoDirectoryOptions mopt;
  mopt.shards = 8;
  mopt.hosts = {1};
  mopt.shard_max_bytes = 2 << 20;
  MemoDirectory dir(rt, mopt);
  QS_CHECK_MSG(sim.BlockOn(dir.Start(rt.CtxOn(0))).ok(), "memo start failed");
  for (uint64_t i = 0; i < 8 * 16; ++i) {
    const MemoKey key = MemoKeyBuilder().Fn(0xab12).U64(i).Build(0);
    QS_CHECK_MSG(
        sim.BlockOn(
               dir.Insert(rt.CtxOn(0), key,
                          std::any(static_cast<int64_t>(i)), 64 << 10))
            .ok(),
        "cache fill failed");
  }

  MemoHarvester harvester(rt);
  harvester.Register(&dir);
  EmergencyEvacuator evacuator(rt);
  if (harvest_cache) {
    evacuator.AttachMemoHarvester(&harvester);
  } else {
    evacuator.set_drop_harvestable(false);  // the ablation: cache = state
  }
  evacuator.Arm(faults);

  // Acked writes, then the revocation. Each migration costs a ~450us setup
  // (gate drain, capture, protocol round trips) on top of its wire time, so
  // the 2ms warning fits the single 4 MiB KV shard comfortably — and is
  // hopeless if eight cache shards are shipped ahead of it.
  Rng rng(seed);
  std::vector<uint64_t> acked;
  for (int i = 0; i < 200; ++i) {
    const uint64_t key = rng.NextBounded(512);
    if (sim.BlockOn(frontend.ServeDetailed(key, /*is_read=*/false))) {
      acked.push_back(key);
    }
  }
  faults.ScheduleRevocation(sim.Now() + Duration::Micros(100), 1,
                            Duration::Millis(2));
  sim.RunUntilIdle();

  HarvestResult r;
  r.acked = static_cast<int64_t>(acked.size());
  FencedKvProclet* kv = rt.UnsafeGet<FencedKvProclet>(kv_id);
  for (const uint64_t key : acked) {
    const bool alive =
        kv != nullptr && kv->Get(key).ok() &&
        *kv->Get(key) == static_cast<int64_t>(key) * 31 + 7;
    if (!alive) {
      ++r.lost;
    }
  }
  if (!evacuator.reports().empty()) {
    const EvacuationReport& report = evacuator.reports().front();
    r.cache_dropped = report.cache_dropped;
    r.cache_bytes_dropped = report.cache_bytes_dropped;
    r.evacuated = report.evacuated;
    r.considered = report.considered;
    r.elapsed = report.elapsed;
  }
  std::ostringstream digest;
  digest << r.acked << '|' << r.lost << '|' << r.cache_dropped << '|'
         << r.cache_bytes_dropped << '|' << r.evacuated << '|' << r.considered
         << '|' << r.elapsed.nanos() << '|' << dir.harvested_bytes() << '|'
         << sim.Now().nanos() << '|' << std::hex << tracer->Digest();
  r.digest = digest.str();
  return r;
}

// --- reporting --------------------------------------------------------------

struct JsonRow {
  std::string scenario;
  std::string mode;
  double offered_qps = 0.0;
  double goodput_qps = 0.0;
  double p99_us = 0.0;
  double hit_rate = 0.0;
  int64_t failed = 0;
  int64_t stale_serves = 0;
  int64_t acked_lost = 0;
  int64_t cache_bytes_dropped = 0;
};

void WriteJson(const std::vector<JsonRow>& rows) {
  std::filesystem::create_directories("results");
  std::ofstream out("results/BENCH_ab12.json");
  out << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    out << "  {\"scenario\": \"" << r.scenario << "\", \"mode\": \"" << r.mode
        << "\", \"offered_qps\": " << r.offered_qps
        << ", \"goodput_qps\": " << r.goodput_qps << ", \"p99_us\": " << r.p99_us
        << ", \"hit_rate\": " << r.hit_rate << ", \"failed\": " << r.failed
        << ", \"stale_serves\": " << r.stale_serves
        << ", \"acked_lost\": " << r.acked_lost
        << ", \"cache_bytes_dropped\": " << r.cache_bytes_dropped << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::printf("ab12: wrote %zu rows to results/BENCH_ab12.json\n", rows.size());
}

JsonRow ServingRow(const std::string& scenario, const std::string& mode,
                   double offered, const ServingResult& r) {
  JsonRow row;
  row.scenario = scenario;
  row.mode = mode;
  row.offered_qps = offered;
  row.goodput_qps = r.goodput_qps;
  row.p99_us = static_cast<double>(r.p99.nanos()) / 1e3;
  row.hit_rate = r.hit_rate;
  row.failed = r.failed;
  row.stale_serves = r.memo_stale_serves;
  return row;
}

JsonRow HarvestRow(const std::string& mode, const HarvestResult& r) {
  JsonRow row;
  row.scenario = "harvest";
  row.mode = mode;
  row.acked_lost = r.lost;
  row.cache_bytes_dropped = r.cache_bytes_dropped;
  return row;
}

void PrintServing(const char* which, double offered, const ServingResult& r) {
  std::printf("%10s | %9.0f %9.0f | %5.1f%% | %9s | %7lld %7lld %7lld\n",
              which, offered, r.goodput_qps, 100.0 * r.hit_rate,
              r.p99.ToString().c_str(), static_cast<long long>(r.failed),
              static_cast<long long>(r.memo_serves),
              static_cast<long long>(r.memo_stale_serves));
}

int Smoke(BenchTrace* trace) {
  int rc = 0;

  // Determinism + hit rate: the zipf point, same seed, twice.
  const double offered = 1.5 * kCapacityQps;
  const ServingResult on1 =
      RunServing(offered, MemoMode::kStale, 1, trace, "smoke_zipf_on1");
  const ServingResult on2 =
      RunServing(offered, MemoMode::kStale, 1, trace, "smoke_zipf_on2");
  const ServingResult off =
      RunServing(offered, MemoMode::kOff, 1, trace, "smoke_zipf_off");
  std::printf("ab12 smoke zipf: offered %.0f qps (shard capacity %.0f)\n"
              "  memo on:  goodput %.0f qps, hit rate %.1f%%, p99 %s\n"
              "  memo off: goodput %.0f qps, p99 %s\n",
              offered, kCapacityQps, on1.goodput_qps, 100.0 * on1.hit_rate,
              on1.p99.ToString().c_str(), off.goodput_qps,
              off.p99.ToString().c_str());
  if (on1.digest != on2.digest) {
    std::printf("ab12 smoke: FAIL — same-seed runs diverged\n  first:  %s\n"
                "  second: %s\n",
                on1.digest.c_str(), on2.digest.c_str());
    rc = 1;
  }
  if (on1.hit_rate < 0.70) {
    std::printf("ab12 smoke: FAIL — hit rate %.1f%% below the 70%% gate\n",
                100.0 * on1.hit_rate);
    rc = 1;
  }
  if (on1.goodput_qps <= off.goodput_qps) {
    std::printf("ab12 smoke: FAIL — memo on did not beat memo off "
                "(%.0f vs %.0f qps)\n",
                on1.goodput_qps, off.goodput_qps);
    rc = 1;
  }

  // Harvest-under-revocation: cache-first drop saves the acked writes the
  // ablation loses.
  const HarvestResult harvest = RunHarvest(true, 7, trace, "smoke_harvest");
  const HarvestResult ship = RunHarvest(false, 7, trace, "smoke_ship_cache");
  std::printf("ab12 smoke harvest: %lld acked writes\n"
              "  cache harvested: %lld lost, %lld cache bytes dropped free\n"
              "  cache shipped:   %lld lost (cache spent the deadline)\n",
              static_cast<long long>(harvest.acked),
              static_cast<long long>(harvest.lost),
              static_cast<long long>(harvest.cache_bytes_dropped),
              static_cast<long long>(ship.lost));
  if (harvest.lost != 0 || harvest.cache_bytes_dropped <= 0) {
    std::printf("ab12 smoke: FAIL — harvesting lost %lld acked writes "
                "(dropped %lld bytes)\n",
                static_cast<long long>(harvest.lost),
                static_cast<long long>(harvest.cache_bytes_dropped));
    rc = 1;
  }
  if (ship.lost == 0) {
    std::printf("ab12 smoke: FAIL — the ship-the-cache ablation lost "
                "nothing; the harvest path is not being exercised\n");
    rc = 1;
  }

  // Stale-serve under pressure: at 3x capacity the baseline sheds; the
  // stale mode converts rejections into bounded-staleness answers and keeps
  // the served tail inside the SLO.
  // Write-heavy mix: invalidation keeps the shard under real pressure, so
  // the stale fallback (not just fresh hits) carries the load.
  const double pressured = 3.0 * kCapacityQps;
  const ServingResult base = RunServing(pressured, MemoMode::kOff, 2, trace,
                                        "smoke_stale_base", 0.8);
  const ServingResult stale = RunServing(pressured, MemoMode::kStale, 2, trace,
                                         "smoke_stale_on", 0.8);
  std::printf("ab12 smoke stale: offered %.0f qps\n"
              "  memo off: %lld failed, p99 %s, %lld sheds\n"
              "  stale on: %lld failed, p99 %s, %lld stale serves\n",
              pressured, static_cast<long long>(base.failed),
              base.p99.ToString().c_str(),
              static_cast<long long>(base.sheds_seen),
              static_cast<long long>(stale.failed),
              stale.p99.ToString().c_str(),
              static_cast<long long>(stale.memo_stale_serves));
  if (base.sheds_seen <= 0) {
    std::printf("ab12 smoke: FAIL — baseline never shed at 3x capacity\n");
    rc = 1;
  }
  if (stale.memo_stale_serves <= 0) {
    std::printf("ab12 smoke: FAIL — no stale serves under pressure\n");
    rc = 1;
  }
  if (stale.failed >= base.failed) {
    std::printf("ab12 smoke: FAIL — stale mode failed as much as the "
                "baseline (%lld vs %lld)\n",
                static_cast<long long>(stale.failed),
                static_cast<long long>(base.failed));
    rc = 1;
  }
  if (stale.p99 > kSlo) {
    std::printf("ab12 smoke: FAIL — stale-mode p99 %s exceeds the %s SLO\n",
                stale.p99.ToString().c_str(), kSlo.ToString().c_str());
    rc = 1;
  }

  std::printf(rc == 0 ? "ab12 smoke: PASS (deterministic; hit rate, harvest "
                        "and stale-serve gates hold)\n"
                      : "ab12 smoke: FAIL\n");
  return rc;
}

void Main(BenchTrace* trace) {
  std::printf("=== A12: memoization tier on harvestable storage proclets ===\n");
  std::printf("(%d machines, %d cores each; 2 KV shards, %s service, %s SLO; "
              "shard capacity ~%.0f qps; zipf(1.2) over 256 keys, 95%% "
              "reads)\n\n",
              kMachines, kCoresPerMachine, kServiceTime.ToString().c_str(),
              kSlo.ToString().c_str(), kCapacityQps);
  std::vector<JsonRow> json;

  std::printf("--- zipf sweep: memo off vs on ---\n");
  std::printf("%10s | %9s %9s | %6s | %9s | %7s %7s %7s\n", "mode", "offered",
              "goodput", "hits", "p99", "failed", "memo", "stale");
  for (const double factor : {0.5, 1.0, 1.5, 2.0}) {
    const double offered = factor * kCapacityQps;
    const std::string suffix = std::to_string(static_cast<int>(factor * 100));
    const ServingResult off =
        RunServing(offered, MemoMode::kOff, 1, trace, "zipf_off_" + suffix);
    const ServingResult on =
        RunServing(offered, MemoMode::kStale, 1, trace, "zipf_on_" + suffix);
    PrintServing("off", offered, off);
    PrintServing("memo", offered, on);
    json.push_back(ServingRow("zipf", "off", offered, off));
    json.push_back(ServingRow("zipf", "memo", offered, on));
  }
  std::printf("(hot keys are answered by the cache tier; the shard CPUs only "
              "see writes and cold reads, so goodput clears the shard "
              "capacity ceiling)\n\n");

  std::printf("--- harvest under revocation (8 cache shards + 1 KV shard on "
              "the victim, 2ms warning) ---\n");
  const HarvestResult harvest = RunHarvest(true, 7, trace, "harvest_on");
  const HarvestResult ship = RunHarvest(false, 7, trace, "harvest_off");
  std::printf("  cache harvested: %lld/%lld acked writes lost, %lld cache "
              "bytes dropped free, evacuated %lld/%lld in %s\n",
              static_cast<long long>(harvest.lost),
              static_cast<long long>(harvest.acked),
              static_cast<long long>(harvest.cache_bytes_dropped),
              static_cast<long long>(harvest.evacuated),
              static_cast<long long>(harvest.considered),
              harvest.elapsed.ToString().c_str());
  std::printf("  cache shipped:   %lld/%lld acked writes lost, evacuated "
              "%lld/%lld in %s\n",
              static_cast<long long>(ship.lost),
              static_cast<long long>(ship.acked),
              static_cast<long long>(ship.evacuated),
              static_cast<long long>(ship.considered),
              ship.elapsed.ToString().c_str());
  json.push_back(HarvestRow("harvest", harvest));
  json.push_back(HarvestRow("ship_cache", ship));
  std::printf("(recomputable bytes are dropped, not shipped: the deadline "
              "budget goes to state that cannot be rebuilt)\n\n");

  std::printf("--- stale serves at 3x capacity ---\n");
  std::printf("%10s | %9s %9s | %6s | %9s | %7s %7s %7s\n", "mode", "offered",
              "goodput", "hits", "p99", "failed", "memo", "stale");
  const double pressured = 3.0 * kCapacityQps;
  const ServingResult base =
      RunServing(pressured, MemoMode::kOff, 2, trace, "stale_off", 0.8);
  const ServingResult fresh =
      RunServing(pressured, MemoMode::kFreshOnly, 2, trace, "stale_fresh", 0.8);
  const ServingResult stale =
      RunServing(pressured, MemoMode::kStale, 2, trace, "stale_on", 0.8);
  PrintServing("off", pressured, base);
  PrintServing("fresh", pressured, fresh);
  PrintServing("stale", pressured, stale);
  json.push_back(ServingRow("stale", "off", pressured, base));
  json.push_back(ServingRow("stale", "fresh", pressured, fresh));
  json.push_back(ServingRow("stale", "stale", pressured, stale));
  std::printf("(fresh-only hits help until a write invalidates; the bounded-"
              "staleness knob additionally converts shed reads into served, "
              "slightly-old answers)\n\n");

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
