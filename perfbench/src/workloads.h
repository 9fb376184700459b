// The three perfbench workloads and the layer ladder.
//
// A workload "rep" builds a fresh cluster, runs one fixed amount of
// simulated work, and checks the outputs. Host-clock figures (setup_s,
// run_s, per-layer host times) vary run to run; every sim-clock figure is a
// pure function of the seed and feeds the digest.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "quicksand/runtime/runtime.h"
#include "quicksand/trace/bench_trace.h"
#include "report.h"

namespace perfbench {

struct RepContext {
  uint64_t seed = 1;
  // Non-null only in a traced rep: host spans around each phase, and the
  // library tracer attached through AttachBenchTracer.
  HostSpans* spans = nullptr;
  quicksand::BenchTrace* trace = nullptr;
  std::string label;
};

struct RepResult {
  double setup_s = 0.0;  // host: build the cluster, load, start services
  double run_s = 0.0;    // host: the timed phase
  Metrics host;          // per-layer host-clock metrics
  Metrics sim;           // every sim-clock output (end-to-end and per-layer)
  int64_t attempted = 0;       // operations offered: images or requests
  std::vector<std::string> violations;  // failed correctness checks
  Metrics trace;               // trace.* aggregates (traced reps only)
};

RepResult RunPipeline(const RepContext& ctx);
RepResult RunKvSteady(const RepContext& ctx);
RepResult RunKvReshape(const RepContext& ctx);

// Host ns per operation of each rung, from a tiny isolated cluster.
Metrics RunLadder(HostSpans* spans);

// --- Helpers shared by the workloads ----------------------------------------

// Counters read at the start of the timed phase, so the layer metrics cover
// only the timed phase.
struct LayerSnapshot {
  quicksand::SimTime now;
  int64_t events = 0;
  int64_t cpu_busy_ns = 0;
  int64_t messages = 0;
  int64_t bytes = 0;
  int64_t dropped = 0;
  quicksand::RuntimeStats rt;
};

LayerSnapshot TakeSnapshot(quicksand::Runtime& rt);

// Fills the sim, cluster, net and runtime layer metrics (timed-phase deltas
// against `before`) into `out`.
void ReportCommonLayers(quicksand::Runtime& rt, const LayerSnapshot& before,
                        Metrics* out);

// Fills latency metrics from raw sim-time samples (ns).
void ReportLatency(const std::vector<int64_t>& samples, Metrics* out);

// Adds the aggregated sim-trace counts to `out`.
class SimTraceAggregator;
void ReportTrace(const SimTraceAggregator& agg, RepResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
