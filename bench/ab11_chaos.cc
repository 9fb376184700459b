// Ablation A11: deterministic chaos — seeded fault schedules vs the
// invariant oracles.
//
// Every prior ablation aims one curated fault at one subsystem. This bench
// composes ALL of them: GenerateSchedule draws a seeded script of crashes,
// revocations, partitions, isolation, link loss, delay spikes, and flash
// crowds, and RunChaos drives it against the full serving + autoscale +
// recovery stack while the oracles watch (range partition, epoch
// monotonicity, exactly-once, recovery completeness, acked-write
// durability, staleness config). Two profiles per sweep:
//
//  * reshape — autoscaler on, no replication: data on a crashed host
//    legally dies (the ledger excuses it), but a crash-unsafe reshape that
//    loses ANY other acked write is a violation;
//  * durable — every shard replicated, reshaping pinned off, at most one
//    fail-stop per schedule (the replication factor is 1): the ledger is
//    strict — no excuses at all.
//
// Reported: survival rate across seeds and the recovery-time (outage
// episode) distribution. Exit is nonzero if any seed violates an oracle.
//
// --smoke is the CI gate: a fixed schedule corpus must survive with zero
// violations and a repeated seed must produce byte-identical digests
// (determinism). Then the engine must EARN its keep: a crafted schedule —
// flash crowd + delay-spiked copy links + crashes of the split targets
// mid-copy — is replayed with the pre-hardening reshape install
// (unsafe_reshape_for_test); the oracles must catch the acked-write loss,
// the shrinker must reduce the schedule to <= 5 events while it still
// reproduces, and the SAME schedule through the hardened path must pass.
// The minimal repro + postmortems land in results/ab11_repro.txt.
//
// Only the plain run (the 20-seed sweep, no flags) writes
// results/BENCH_ab11.json; --smoke, --seeds N and --one write no record.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "quicksand/chaos/harness.h"
#include "quicksand/chaos/oracles.h"
#include "quicksand/chaos/schedule.h"
#include "quicksand/chaos/shrink.h"

namespace quicksand {
namespace {

constexpr int kMachines = 6;
constexpr Duration kHorizon = Duration::Millis(60);

ChaosHarnessOptions ReshapeProfile() {
  ChaosHarnessOptions opt;
  opt.machines = kMachines;
  opt.run = kHorizon;
  opt.replicate = false;
  opt.autoscale = true;
  return opt;
}

ChaosHarnessOptions DurableProfile() {
  ChaosHarnessOptions opt;
  opt.machines = kMachines;
  opt.run = kHorizon;
  opt.replicate = true;  // pins the shards; reshaping is refused
  opt.autoscale = false;
  return opt;
}

ChaosSchedule MakeSchedule(uint64_t seed, int max_crashes) {
  ChaosScheduleOptions opt;
  opt.machines = kMachines;
  opt.horizon = kHorizon;
  opt.events = 8;
  opt.max_crashes = max_crashes;
  return GenerateSchedule(seed, opt);
}

Duration MaxOutage(const ChaosRunResult& r) {
  Duration max = Duration::Zero();
  for (const Duration d : r.outages) {
    max = std::max(max, d);
  }
  return max;
}

struct JsonRow {
  uint64_t seed;
  std::string profile;
  bool survived;
  size_t violations;
  int64_t started;
  int64_t acked;
  int64_t failed;
  int64_t crashes;
  int64_t repairs;
  int64_t rollbacks;
  int64_t discards;
  double outage_max_us;
};

JsonRow Row(uint64_t seed, const char* profile, const ChaosRunResult& r) {
  return JsonRow{seed,
                 profile,
                 r.survived,
                 r.violations.size(),
                 r.started,
                 r.acked,
                 r.failed,
                 r.crashes,
                 r.repairs,
                 r.reshape_rollbacks,
                 r.reshape_payload_discards,
                 static_cast<double>(MaxOutage(r).nanos()) / 1e3};
}

void WriteJson(const std::vector<JsonRow>& rows) {
  std::filesystem::create_directories("results");
  std::ofstream out("results/BENCH_ab11.json");
  out << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    out << "  {\"seed\": " << r.seed << ", \"profile\": \"" << r.profile
        << "\", \"survived\": " << (r.survived ? "true" : "false")
        << ", \"violations\": " << r.violations
        << ", \"started\": " << r.started << ", \"acked\": " << r.acked
        << ", \"failed\": " << r.failed << ", \"crashes\": " << r.crashes
        << ", \"repairs\": " << r.repairs
        << ", \"reshape_rollbacks\": " << r.rollbacks
        << ", \"payload_discards\": " << r.discards
        << ", \"outage_max_us\": " << r.outage_max_us << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::printf("ab11: wrote %zu rows to results/BENCH_ab11.json\n",
              rows.size());
}

void PrintRow(uint64_t seed, const char* profile, const ChaosRunResult& r) {
  std::printf("%6llu %8s | %9s | %6lld %6lld %6lld | %2lld %2lld %3lld | "
              "%3lld %3lld | %9s | %zu\n",
              static_cast<unsigned long long>(seed), profile,
              r.survived ? "SURVIVED" : "FAILED",
              static_cast<long long>(r.started),
              static_cast<long long>(r.acked),
              static_cast<long long>(r.failed),
              static_cast<long long>(r.crashes),
              static_cast<long long>(r.revocations),
              static_cast<long long>(r.network_faults),
              static_cast<long long>(r.repairs),
              static_cast<long long>(r.reshape_rollbacks),
              MaxOutage(r).ToString().c_str(), r.violations.size());
}

// The crafted kill shot for the pre-hardening reshape: the flash crowd
// forces splits onto the idle hosts, the delay spikes stretch every
// donor->target copy to ~5ms wide, and the staggered crashes of the idle
// hosts land inside those windows. With the blind install a crashed
// target's split "succeeds" into the limbo corpse and the extracted range
// vanishes — acked writes and all.
ChaosSchedule BugSchedule() {
  ChaosSchedule s;
  s.seed = 0xB06;
  auto add = [&s](ChaosEventKind kind, Duration at, Duration duration,
                  MachineId a, MachineId b, double magnitude,
                  Duration extra) {
    ChaosEvent e;
    e.kind = kind;
    e.at = at;
    e.duration = duration;
    e.a = a;
    e.b = b;
    e.magnitude = magnitude;
    e.extra = extra;
    s.events.push_back(e);
  };
  // Spikes span the whole run and add 20ms to every donor->idle-host link:
  // any split copy launched during the flash is in flight for ~20ms, so the
  // staggered crashes of the idle hosts are guaranteed to land inside one.
  const Duration spike_at = Duration::Millis(5);
  const Duration spike_window = Duration::Millis(50);
  const Duration spike = Duration::Millis(20);
  add(ChaosEventKind::kFlashCrowd, Duration::Millis(8), Duration::Millis(30),
      1, 0, 4.0, Duration::Zero());
  for (const MachineId src : {MachineId{1}, MachineId{2}}) {
    for (const MachineId dst : {MachineId{3}, MachineId{4}, MachineId{5}}) {
      add(ChaosEventKind::kDelaySpike, spike_at, spike_window, src, dst, 0.0,
          spike);
    }
  }
  add(ChaosEventKind::kCrash, Duration::Millis(20), Duration::Zero(), 4, 0,
      0.0, Duration::Zero());
  add(ChaosEventKind::kCrash, Duration::Millis(26), Duration::Zero(), 5, 0,
      0.0, Duration::Zero());
  add(ChaosEventKind::kCrash, Duration::Millis(32), Duration::Zero(), 3, 0,
      0.0, Duration::Zero());
  return s;
}

int BugHunt() {
  const ChaosSchedule bug = BugSchedule();
  ChaosHarnessOptions unsafe_opt = ReshapeProfile();
  unsafe_opt.unsafe_reshape = true;

  const ChaosRunResult broken = RunChaos(bug, unsafe_opt);
  std::printf("ab11 bug-hunt: unsafe reshape under the crafted schedule: "
              "%zu violations, %lld payload installs lost (%lld splits, "
              "%lld migrations, %lld crashes, %lld acked writes, %lld "
              "repairs, %lld rollbacks)\n",
              broken.violations.size(),
              static_cast<long long>(broken.reshape_payload_discards),
              static_cast<long long>(broken.splits),
              static_cast<long long>(broken.migrations),
              static_cast<long long>(broken.crashes),
              static_cast<long long>(broken.acked_writes),
              static_cast<long long>(broken.repairs),
              static_cast<long long>(broken.reshape_rollbacks));
  if (broken.violations.empty()) {
    std::printf("ab11 smoke: FAIL — the oracles missed the reintroduced "
                "crash-mid-reshape bug\n");
    return 1;
  }

  ShrinkResult shrunk = ShrinkSchedule(
      bug,
      [&unsafe_opt](const ChaosSchedule& candidate) {
        return !RunChaos(candidate, unsafe_opt).violations.empty();
      },
      /*max_probes=*/80);
  const ChaosRunResult repro = RunChaos(shrunk.schedule, unsafe_opt);
  std::printf("ab11 bug-hunt: shrunk %zu -> %zu events (%d probes, %d "
              "rounds); repro has %zu violations\n",
              bug.events.size(), shrunk.schedule.events.size(), shrunk.probes,
              shrunk.rounds, repro.violations.size());

  std::filesystem::create_directories("results");
  {
    std::ofstream out("results/ab11_repro.txt");
    out << "Minimal repro for the crash-mid-reshape bug "
        << "(unsafe_reshape_for_test)\n\nschedule: "
        << FormatSchedule(shrunk.schedule) << "\nviolations:\n"
        << FormatViolations(repro.violations) << "\n";
    for (const std::string& postmortem : repro.postmortems) {
      out << "\n" << postmortem;
    }
  }
  std::printf("ab11 bug-hunt: wrote minimal repro + %zu postmortems to "
              "results/ab11_repro.txt\n",
              repro.postmortems.size());

  if (repro.violations.empty() || shrunk.schedule.events.size() > 5) {
    std::printf("ab11 smoke: FAIL — shrink did not hold the violation at "
                "<= 5 events (%zu events, %zu violations)\n",
                shrunk.schedule.events.size(), repro.violations.size());
    return 1;
  }
  // The hardened path must survive the exact same kill shot.
  const ChaosRunResult hardened = RunChaos(bug, ReshapeProfile());
  if (!hardened.violations.empty()) {
    std::printf("ab11 smoke: FAIL — hardened reshape still violates under "
                "the bug schedule:\n%s",
                FormatViolations(hardened.violations).c_str());
    return 1;
  }
  std::printf("ab11 bug-hunt: hardened run survives the same schedule "
              "(%lld rollbacks, %lld repairs)\n",
              static_cast<long long>(hardened.reshape_rollbacks),
              static_cast<long long>(hardened.repairs));
  return 0;
}

int Smoke() {
  // Fixed corpus: same seeds forever, so a regression is a diff, not a
  // statistic. Seed 3 runs twice — the digests must match bit for bit.
  const std::vector<uint64_t> reshape_corpus = {3, 7, 11, 19};
  const std::vector<uint64_t> durable_corpus = {5};
  int bad = 0;
  std::string digest_first;
  std::string digest_second;
  for (const uint64_t seed : reshape_corpus) {
    const ChaosSchedule schedule = MakeSchedule(seed, /*max_crashes=*/2);
    const ChaosRunResult r = RunChaos(schedule, ReshapeProfile());
    PrintRow(seed, "reshape", r);
    if (!r.survived) {
      ++bad;
      std::printf("%s", FormatViolations(r.violations).c_str());
    }
    if (seed == reshape_corpus.front()) {
      digest_first = r.digest;
      digest_second = RunChaos(schedule, ReshapeProfile()).digest;
    }
  }
  for (const uint64_t seed : durable_corpus) {
    const ChaosSchedule schedule = MakeSchedule(seed, /*max_crashes=*/1);
    const ChaosRunResult r = RunChaos(schedule, DurableProfile());
    PrintRow(seed, "durable", r);
    if (!r.survived) {
      ++bad;
      std::printf("%s", FormatViolations(r.violations).c_str());
    }
  }
  if (bad > 0) {
    std::printf("ab11 smoke: FAIL — %d corpus schedules not survived\n", bad);
    return 1;
  }
  if (digest_first != digest_second) {
    std::printf("ab11 smoke: FAIL — same-seed runs diverged\n  first:  %s\n"
                "  second: %s\n",
                digest_first.c_str(), digest_second.c_str());
    return 1;
  }
  if (BugHunt() != 0) {
    return 1;
  }
  std::printf("ab11 smoke: PASS (corpus survived deterministically; the "
              "reintroduced bug was caught and shrunk)\n");
  return 0;
}

void Main(int seeds, bool write_record) {
  std::printf("=== A11: seeded chaos schedules vs the invariant oracles ===\n");
  std::printf("(%d machines; %s horizon; 8 events/schedule; reshape profile "
              "allows 2 fail-stops with the ledger excusing data that died "
              "with its host; durable profile allows 1 with a strict "
              "ledger)\n\n",
              kMachines, kHorizon.ToString().c_str());
  std::printf("%6s %8s | %9s | %6s %6s %6s | %2s %2s %3s | %3s %3s | %9s | "
              "viol\n",
              "seed", "profile", "outcome", "start", "acked", "fail", "cr",
              "rv", "net", "rep", "rb", "max outage");
  std::vector<JsonRow> rows;
  int violated = 0;
  int survived = 0;
  std::vector<Duration> outages;
  for (int i = 0; i < seeds; ++i) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(i);
    const bool durable = (i % 4) == 3;  // every fourth seed runs durable
    const ChaosSchedule schedule = MakeSchedule(seed, durable ? 1 : 2);
    const ChaosRunResult r =
        RunChaos(schedule, durable ? DurableProfile() : ReshapeProfile());
    PrintRow(seed, durable ? "durable" : "reshape", r);
    rows.push_back(Row(seed, durable ? "durable" : "reshape", r));
    if (!r.violations.empty()) {
      ++violated;
      std::printf("%s", FormatViolations(r.violations).c_str());
    }
    if (r.survived) {
      ++survived;
    }
    outages.insert(outages.end(), r.outages.begin(), r.outages.end());
  }
  std::sort(outages.begin(), outages.end());
  const auto pct = [&outages](double p) {
    if (outages.empty()) {
      return Duration::Zero();
    }
    const size_t idx = std::min(
        outages.size() - 1,
        static_cast<size_t>(p * static_cast<double>(outages.size())));
    return outages[idx];
  };
  std::printf("\nsurvival: %d/%d; oracle violations in %d runs\n", survived,
              seeds, violated);
  std::printf("recovery time (table degraded -> fully live), %zu episodes: "
              "p50 %s, p90 %s, max %s\n",
              outages.size(), pct(0.50).ToString().c_str(),
              pct(0.90).ToString().c_str(),
              (outages.empty() ? Duration::Zero() : outages.back())
                  .ToString()
                  .c_str());
  if (write_record) {
    WriteJson(rows);
  }
  if (violated > 0) {
    std::exit(1);
  }
}

}  // namespace
}  // namespace quicksand

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return quicksand::Smoke();
  }
  // Repro workflow: replay one generated schedule and dump everything.
  if (argc > 2 && std::strcmp(argv[1], "--one") == 0) {
    const uint64_t seed = std::strtoull(argv[2], nullptr, 10);
    const bool durable = argc > 3 && std::strcmp(argv[3], "durable") == 0;
    const quicksand::ChaosSchedule schedule =
        quicksand::MakeSchedule(seed, durable ? 1 : 2);
    std::printf("schedule: %s\n",
                quicksand::FormatSchedule(schedule).c_str());
    const quicksand::ChaosRunResult r = quicksand::RunChaos(
        schedule,
        durable ? quicksand::DurableProfile() : quicksand::ReshapeProfile());
    quicksand::PrintRow(seed, durable ? "durable" : "reshape", r);
    std::printf("%s", quicksand::FormatViolations(r.violations).c_str());
    for (const std::string& postmortem : r.postmortems) {
      std::printf("\n%s", postmortem.c_str());
    }
    return r.violations.empty() ? 0 : 1;
  }
  if (argc > 2 && std::strcmp(argv[1], "--seeds") == 0) {
    quicksand::Main(std::max(1, std::atoi(argv[2])), /*write_record=*/false);
    return 0;
  }
  quicksand::Main(20, /*write_record=*/true);
  return 0;
}
