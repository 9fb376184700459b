// scale_sim: event-core throughput at cluster scale.
//
// Every experiment in this repo rides on the discrete-event core, so its
// throughput bounds how large a cluster (machines x proclets) and how long a
// simulated horizon any bench can afford. This bench drives the core with the
// mix that dominates real runs — zero-delay yields (the now lane), short
// timed sleeps, and mutex park/wake — across a sweep of machine count x
// proclet count up to 1000 machines / 1M proclets, and reports events/sec
// plus sim-seconds-per-wall-second. A raw schedule/fire row isolates the
// event queue itself from coroutine overhead.
//
// Results land in results/BENCH_scale.json (one row per cell) so the perf
// trajectory is visible across PRs.
//
// --smoke: fixed small sweep. Each cell's digest hashes the event order it
// observed and must equal a pinned constant, so a core that reorders events
// fails it; events/sec must clear a deliberately generous floor so CI noise
// cannot flake it.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "quicksand/sim/simulator.h"
#include "quicksand/sim/sync.h"

namespace quicksand {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xff)) * kFnvPrime;
    v >>= 8;
  }
  return h;
}

// splitmix64: cheap, seedable, deterministic across platforms.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

struct Counters {
  int64_t events = 0;            // resumptions observed by the workload fibers
  uint64_t digest = kFnvOffset;  // order-sensitive: hashes the interleaving
};

struct MachineCtx {
  explicit MachineCtx(Simulator& sim) : mu(sim) {}
  Mutex mu;
  int64_t acquisitions = 0;
};

// One simulated proclet: the await mix of a serving/compute fiber. Yields
// dominate (as they do in the real runtime: Spawn, Yield, and WakeJoiners all
// schedule at zero delay), and sleeps exercise the timed heap.
Task<> ProcletLoop(Simulator& sim, MachineCtx& m, WaitGroup& wg,
                   uint64_t fiber_seed, int iters, Counters& c) {
  Rng rng{fiber_seed};
  for (int i = 0; i < iters; ++i) {
    co_await sim.Yield();
    ++c.events;
    co_await sim.Yield();
    ++c.events;
    co_await sim.Sleep(Duration::Micros(1 + static_cast<int64_t>(rng.Next() % 197)));
    ++c.events;
    if ((i & 3) == 0) {
      co_await m.mu.Lock();
      ++c.events;
      ++m.acquisitions;
      co_await sim.Yield();
      ++c.events;
      m.mu.Unlock();
    }
    c.digest = Fnv(c.digest, (fiber_seed << 20) ^
                                 static_cast<uint64_t>(sim.Now().nanos()));
  }
  wg.Done();
}

struct CellResult {
  int machines = 0;
  int64_t proclets = 0;
  int64_t events = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  double sim_seconds = 0.0;
  double sim_per_wall = 0.0;
  uint64_t digest = 0;
  std::string label;
};

CellResult RunCell(int machines, int64_t proclets, int iters, uint64_t seed) {
  Simulator sim;
  Counters c;
  WaitGroup wg(sim);
  std::vector<std::unique_ptr<MachineCtx>> ms;
  ms.reserve(static_cast<size_t>(machines));
  for (int i = 0; i < machines; ++i) {
    ms.push_back(std::make_unique<MachineCtx>(sim));
  }
  const auto start = std::chrono::steady_clock::now();
  wg.Add(proclets);
  for (int64_t p = 0; p < proclets; ++p) {
    MachineCtx& m = *ms[static_cast<size_t>(p % machines)];
    sim.Spawn(ProcletLoop(sim, m, wg, seed ^ static_cast<uint64_t>(p), iters, c));
    ++c.events;  // the spawn event itself
  }
  sim.BlockOn(wg.Wait());
  const auto end = std::chrono::steady_clock::now();

  CellResult r;
  r.machines = machines;
  r.proclets = proclets;
  r.events = c.events;
  r.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          end - start)
          .count();
  r.events_per_sec = r.wall_ms > 0.0 ? 1e3 * static_cast<double>(c.events) / r.wall_ms : 0.0;
  r.sim_seconds = sim.Now().seconds();
  r.sim_per_wall = r.wall_ms > 0.0 ? r.sim_seconds / (r.wall_ms / 1e3) : 0.0;
  // Fold the machine-level tallies in so lock fairness is part of the gate.
  uint64_t digest = c.digest;
  for (const auto& m : ms) {
    digest = Fnv(digest, static_cast<uint64_t>(m->acquisitions));
  }
  digest = Fnv(digest, static_cast<uint64_t>(sim.Now().nanos()));
  r.digest = digest;
  char label[64];
  std::snprintf(label, sizeof(label), "fibers_%dx%lld", machines,
                static_cast<long long>(proclets));
  r.label = label;
  return r;
}

// Raw event-queue row: no coroutines, just schedule/fire churn. This
// isolates the queue's ordering machinery from fiber frame costs.
CellResult RunRawEvents(int64_t count, uint64_t seed) {
  Simulator sim;
  Rng rng{seed};
  int64_t fired = 0;
  uint64_t digest = kFnvOffset;
  const auto start = std::chrono::steady_clock::now();
  // Bursts of 64 slots: even slots fire at zero delay, odd slots draw a
  // 1-97 µs delay. Every 8th slot draws its delay but schedules nothing, so
  // a burst holds 56 events (32 in the now lane, 24 timed) and the cell
  // keeps the delay sequence its pinned digest was taken with.
  constexpr int kBurst = 64;
  const int64_t bursts = count / kBurst;
  for (int64_t b = 0; b < bursts; ++b) {
    for (int i = 0; i < kBurst; ++i) {
      const Duration delay = (i & 1) == 0
                                 ? Duration::Zero()
                                 : Duration::Micros(1 + static_cast<int64_t>(
                                                           rng.Next() % 97));
      if ((i & 7) != 3) {
        sim.Schedule(delay, [&fired] { ++fired; });
      }
    }
    sim.RunUntilIdle();
    digest = Fnv(digest, static_cast<uint64_t>(fired));
    digest = Fnv(digest, static_cast<uint64_t>(sim.Now().nanos()));
  }
  const auto end = std::chrono::steady_clock::now();

  CellResult r;
  r.machines = 0;
  r.proclets = 0;
  r.events = fired;
  r.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          end - start)
          .count();
  r.events_per_sec = r.wall_ms > 0.0 ? 1e3 * static_cast<double>(fired) / r.wall_ms : 0.0;
  r.sim_seconds = sim.Now().seconds();
  r.sim_per_wall = r.wall_ms > 0.0 ? r.sim_seconds / (r.wall_ms / 1e3) : 0.0;
  r.digest = digest;
  r.label = "raw_events";
  return r;
}

void PrintRow(const CellResult& r) {
  std::printf("%20s | %10lld ev | %9.1f ms | %10.0f ev/s | %8.3f sim-s | %7.2f sim-s/wall-s | digest %016llx\n",
              r.label.c_str(), static_cast<long long>(r.events), r.wall_ms,
              r.events_per_sec, r.sim_seconds, r.sim_per_wall,
              static_cast<unsigned long long>(r.digest));
}

void WriteJson(const std::vector<CellResult>& rows) {
  std::filesystem::create_directories("results");
  std::ofstream out("results/BENCH_scale.json");
  out << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const CellResult& r = rows[i];
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(r.digest));
    out << "  {\"scenario\": \"" << r.label << "\", \"machines\": " << r.machines
        << ", \"proclets\": " << r.proclets << ", \"events\": " << r.events
        << ", \"wall_ms\": " << r.wall_ms
        << ", \"events_per_sec\": " << r.events_per_sec
        << ", \"sim_seconds\": " << r.sim_seconds
        << ", \"sim_seconds_per_wall_second\": " << r.sim_per_wall
        << ", \"digest\": \"" << digest << "\"}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::printf("scale_sim: wrote %zu rows to results/BENCH_scale.json\n",
              rows.size());
}

// The floor is far below what even an unoptimized core sustains on slow CI
// hardware: the gate exists to catch order-of-magnitude regressions (an
// accidental O(n) scan per event), not few-percent noise.
constexpr double kSmokeEventsPerSecFloor = 100e3;

int Smoke() {
  // Pinned digests: the (time, seq) event order each cell must reproduce.
  struct SmokeCell {
    CellResult result;
    uint64_t want_digest;
  };
  const SmokeCell cells[] = {
      {RunCell(8, 512, 40, 1), 0x02fd7626675272c5ull},
      {RunCell(64, 4096, 10, 1), 0xf376c41e419713dcull},
      {RunRawEvents(1 << 18, 1), 0xc075d1a2b05057afull},
  };
  std::printf("scale_sim smoke:\n");
  for (const SmokeCell& cell : cells) {
    PrintRow(cell.result);
  }
  for (const SmokeCell& cell : cells) {
    const CellResult& r = cell.result;
    if (r.digest != cell.want_digest) {
      std::printf("scale_sim smoke: FAIL — %s digest %016llx, pinned %016llx: "
                  "the event order changed\n",
                  r.label.c_str(), static_cast<unsigned long long>(r.digest),
                  static_cast<unsigned long long>(cell.want_digest));
      return 1;
    }
    if (r.events_per_sec < kSmokeEventsPerSecFloor) {
      std::printf("scale_sim smoke: FAIL — %s ran at %.0f ev/s, below the "
                  "%.0f ev/s floor\n",
                  r.label.c_str(), r.events_per_sec, kSmokeEventsPerSecFloor);
      return 1;
    }
  }
  std::printf("scale_sim smoke: PASS (pinned event order, above the "
              "throughput floor)\n");
  return 0;
}

void Main() {
  std::printf("=== scale_sim: event-core throughput, machines x proclets ===\n");
  std::vector<CellResult> rows;
  rows.push_back(RunRawEvents(4 << 20, 1));
  PrintRow(rows.back());
  struct Cell {
    int machines;
    int64_t proclets;
    int iters;
  };
  // Iterations shrink as the fleet grows so every cell stays a few seconds;
  // the 1000-machine / 1M-proclet cell is the routine-scale target.
  const Cell cells[] = {
      {8, 1'000, 800},
      {64, 10'000, 80},
      {256, 100'000, 16},
      {1000, 1'000'000, 3},
  };
  for (const Cell& cell : cells) {
    rows.push_back(RunCell(cell.machines, cell.proclets, cell.iters, 1));
    PrintRow(rows.back());
  }
  WriteJson(rows);
}

}  // namespace
}  // namespace quicksand

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return quicksand::Smoke();
  }
  quicksand::Main();
  return 0;
}
