// Layer counters read from the library's public accessors.

#include "quicksand/common/bytes.h"
#include "trace_agg.h"
#include "workloads.h"

namespace perfbench {

using quicksand::MachineId;
using quicksand::Runtime;

LayerSnapshot TakeSnapshot(Runtime& rt) {
  LayerSnapshot s;
  s.now = rt.sim().Now();
  s.events = rt.sim().fired_event_count();
  for (MachineId m = 0; m < rt.cluster().size(); ++m) {
    s.cpu_busy_ns += rt.cluster().machine(m).cpu().TotalBusy().nanos();
  }
  s.messages = rt.fabric().total_messages();
  s.bytes = rt.fabric().total_bytes_sent();
  s.dropped = rt.fabric().dropped_transfers();
  s.rt = rt.stats();
  return s;
}

void ReportCommonLayers(Runtime& rt, const LayerSnapshot& before, Metrics* out) {
  const LayerSnapshot after = TakeSnapshot(rt);
  const double sim_s = static_cast<double>((after.now - before.now).nanos()) / 1e9;
  out->Set("sim.events", static_cast<double>(after.events - before.events), "count");
  out->Set("sim.sim_s", sim_s, "s");

  int64_t cores = 0;
  int64_t mem_peak = 0;
  for (MachineId m = 0; m < rt.cluster().size(); ++m) {
    cores += rt.cluster().machine(m).cpu().num_cores();
    mem_peak += rt.cluster().machine(m).memory().high_watermark();
  }
  const double busy_s =
      static_cast<double>(after.cpu_busy_ns - before.cpu_busy_ns) / 1e9;
  out->Set("cluster.cpu_busy_s", busy_s, "s");
  out->Set("cluster.cpu_util",
           sim_s > 0 ? busy_s / (sim_s * static_cast<double>(cores)) : 0.0, "frac");
  out->Set("cluster.mem_peak_mib",
           static_cast<double>(mem_peak) / static_cast<double>(quicksand::kMiB), "MiB");

  out->Set("net.messages", static_cast<double>(after.messages - before.messages),
           "count");
  out->Set("net.bytes", static_cast<double>(after.bytes - before.bytes), "bytes");
  out->Set("net.dropped", static_cast<double>(after.dropped - before.dropped),
           "count");

  const quicksand::RuntimeStats& a = after.rt;
  const quicksand::RuntimeStats& b = before.rt;
  const auto delta = [out](const char* name, int64_t now, int64_t then) {
    out->Set(name, static_cast<double>(now - then), "count");
  };
  delta("runtime.remote_invocations", a.remote_invocations, b.remote_invocations);
  delta("runtime.local_invocations", a.local_invocations, b.local_invocations);
  delta("runtime.directory_lookups", a.directory_lookups, b.directory_lookups);
  delta("runtime.bounces", a.bounces, b.bounces);
  delta("runtime.migrations", a.migrations, b.migrations);
  // The latency histograms cannot be differenced: these cover the rep's
  // whole lifetime, set-up included.
  const auto p99_us = [](const quicksand::LatencyHistogram& h) {
    return h.count() > 0 ? static_cast<double>(h.Percentile(99).nanos()) / 1e3 : 0.0;
  };
  out->Set("runtime.remote_invoke_p99_us", p99_us(a.remote_invoke_latency), "us");
  out->Set("runtime.migration_p99_us", p99_us(a.migration_latency), "us");
}

void ReportLatency(const std::vector<int64_t>& samples, Metrics* out) {
  out->Set("sim_p50_us", static_cast<double>(PercentileNs(samples, 50)) / 1e3, "us");
  out->Set("sim_p99_us", static_cast<double>(PercentileNs(samples, 99)) / 1e3, "us");
  out->Set("sim.latency_samples", static_cast<double>(samples.size()), "count");
}

void ReportTrace(const SimTraceAggregator& agg, RepResult* out) {
  for (const auto& [op, totals] : agg.totals()) {
    out->trace.Set("trace." + op + ".count", static_cast<double>(totals.count),
                   "count");
    if (totals.span) {
      out->trace.Set("trace." + op + ".self_sim_ms",
                     static_cast<double>(totals.self_ns) / 1e6, "ms");
    }
  }
  out->trace.Set("trace.dropped", static_cast<double>(agg.dropped()), "count");
  if (agg.missed() != 0) {
    out->violations.push_back("trace harvest missed " +
                              std::to_string(agg.missed()) + " events");
  }
}

}  // namespace perfbench
