// perfbench: one workload of the repo benchmark, on two clocks.
//
//   perfbench --workload <pipeline|kv_steady|kv_reshape> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Repeats the workload ("reps": fresh cluster, same seed) until --seconds of
// host time have passed, at least kMinReps times. Host-clock metrics are
// medians over the untraced reps; sim-clock metrics come from the first rep,
// and every later rep must reproduce them exactly (same digest). With
// --trace 1 the layer ladder runs first, then untraced and traced reps
// alternate, and the per-layer metrics are reported; host and sim trace
// files are written to --out-dir. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exit status 1 when any
// correctness check failed.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

// A run covers kSegments independent segments: segment k of seed s runs
// with seed s * kSegments + k. Sim-clock metrics are medians over the
// segments, which keeps one seed's luck out of a run's figures.
constexpr int kSegments = 16;

struct Named {
  const char* name;
  const char* unit;
};

// What a user of the system sees; reported with --trace 0.
constexpr Named kEndToEnd[] = {
    {"setup_s", "s"},          {"run_s", "s"},          {"peak_rss_mib", "MiB"},
    {"sim_goodput", "1/s"},    {"sim_p50_us", "us"},    {"sim_p99_us", "us"},
    {"ok_frac", "frac"},
};

// One entry per layer counter; reported with --trace 1. A layer the
// workload never touches reports 0.
constexpr Named kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.sim_s", "s"},
    {"sim.latency_samples", "count"},
    {"cluster.cpu_busy_s", "s"},
    {"cluster.cpu_util", "frac"},
    {"cluster.mem_peak_mib", "MiB"},
    {"net.messages", "count"},
    {"net.bytes", "bytes"},
    {"net.dropped", "count"},
    {"runtime.remote_invocations", "count"},
    {"runtime.local_invocations", "count"},
    {"runtime.directory_lookups", "count"},
    {"runtime.bounces", "count"},
    {"runtime.migrations", "count"},
    {"runtime.remote_invoke_p99_us", "us"},
    {"runtime.migration_p99_us", "us"},
    {"sched.reactor_evictions", "count"},
    {"sched.rebalancer_migrations", "count"},
    {"ds.load_host_s", "s"},
    {"ds.load_ns_per_push", "ns"},
    {"compute.jobs", "count"},
    {"compute.foreach_host_s", "s"},
    {"app.makespan_s", "s"},
    {"app.tensors_consumed", "count"},
    {"serving.offered", "count"},
    {"serving.ok_in_slo", "count"},
    {"serving.ok_late", "count"},
    {"serving.failed", "count"},
    {"serving.retries", "count"},
    {"serving.moved_reroutes", "count"},
    {"serving.reshape_rollbacks", "count"},
    {"serving.acked_writes", "count"},
    {"serving.shards_final", "count"},
    {"overload.admits", "count"},
    {"overload.sheds", "count"},
    {"overload.shed_ratio", "frac"},
    {"overload.budget_denied", "count"},
    {"overload.deadline_rejected", "count"},
    {"autoscale.splits", "count"},
    {"autoscale.merges", "count"},
    {"autoscale.migrations", "count"},
    {"autoscale.deferred", "count"},
    {"autoscale.reshape_failures", "count"},
    {"ladder.event.ns_per_op", "ns"},
    {"ladder.fiber.ns_per_op", "ns"},
    {"ladder.channel.ns_per_op", "ns"},
    {"ladder.cpu_slice.ns_per_op", "ns"},
    {"ladder.fabric.ns_per_op", "ns"},
    {"ladder.rpc.ns_per_op", "ns"},
    {"ladder.invoke.ns_per_op", "ns"},
    {"ladder.ds_push.ns_per_op", "ns"},
    {"ladder.frontend.ns_per_op", "ns"},
    {"trace.invoke.count", "count"},
    {"trace.invoke.self_sim_ms", "ms"},
    {"trace.migrate.count", "count"},
    {"trace.migrate.self_sim_ms", "ms"},
    {"trace.rpc_send.count", "count"},
    {"trace.bounce.count", "count"},
    {"trace.commit.count", "count"},
    {"trace.spawn.count", "count"},
    {"trace.rpc_shed.count", "count"},
    {"trace.deadline_expired.count", "count"},
    {"trace.reshape_split.count", "count"},
    {"trace.reshape_merge.count", "count"},
    {"trace.reshape_migrate.count", "count"},
    {"trace.reshape_defer.count", "count"},
    {"trace.dropped", "count"},
    {"trace.overhead_frac", "frac"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

std::optional<Args> Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || args.seconds <= 0) {
    return std::nullopt;
  }
  return args;
}

using WorkloadFn = RepResult (*)(const RepContext&);

WorkloadFn Lookup(const std::string& name) {
  if (name == "pipeline") return RunPipeline;
  if (name == "kv_steady") return RunKvSteady;
  if (name == "kv_reshape") return RunKvReshape;
  return nullptr;
}

uint64_t SimDigest(const Metrics& sim) {
  Digest d;
  for (const Metric& m : sim.all()) {
    d.Mix(m.name);
    d.Mix(m.value);
  }
  return d.value();
}

struct Rep {
  int segment = 0;
  RepResult result;
  double paired_run_s = 0.0;  // traced reps: the untraced rep just before
};

template <typename Fn>
double MedianOf(const std::vector<Rep>& reps, Fn get) {
  std::vector<double> values;
  for (const Rep& r : reps) {
    values.push_back(get(r));
  }
  return Median(values);
}

void PrintMetrics(const char* kind, const Metrics& m) {
  for (const Metric& x : m.all()) {
    std::printf("%s %-32s %.6g %s\n", kind, x.name.c_str(), x.value, x.unit.c_str());
  }
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.all().size(); ++i) {
    const Metric& m = metrics.all()[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

int Main(const Args& args) {
  const WorkloadFn run = Lookup(args.workload);
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string stem =
      args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("host %s\n", HostFingerprintJson().c_str());

  HostSpans spans;
  std::optional<quicksand::BenchTrace> sim_trace;
  Metrics ladder;
  if (args.trace) {
    std::string prog = "perfbench";
    std::string flag = "--trace";
    std::string path = stem + ".sim_trace.json";
    char* trace_argv[] = {prog.data(), flag.data(), path.data(), nullptr};
    int trace_argc = 3;
    sim_trace.emplace(quicksand::BenchTrace::FromArgs(trace_argc, trace_argv));
    ladder = RunLadder(&spans);
  }

  // Rep n runs segment n mod kSegments. With --trace 1 every untraced rep
  // is followed by a traced rep of the same segment, so both see the same
  // host noise.
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  const double begin = HostNowS();
  for (int i = 0;; ++i) {
    const bool traced_rep = args.trace && i % 2 == 1;
    Rep rep;
    rep.segment = (args.trace ? i / 2 : i) % kSegments;
    RepContext ctx;
    ctx.seed = args.seed * kSegments + static_cast<uint64_t>(rep.segment);
    if (traced_rep) {
      ctx.spans = &spans;
      ctx.trace = &*sim_trace;
      ctx.label = args.workload + "_rep" + std::to_string(i);
      rep.paired_run_s = plain.back().result.run_s;
    }
    rep.result = run(ctx);
    std::vector<Rep>& into = traced_rep ? traced : plain;
    into.push_back(std::move(rep));
    if (!into.back().result.violations.empty()) {
      break;  // the same seed fails the same way again
    }
    const bool enough =
        plain.size() >= kSegments && (!args.trace || !traced.empty());
    if (enough && HostNowS() - begin >= args.seconds) {
      break;
    }
  }

  // Correctness: every rep's checks, and every rep reproducing the sim-clock
  // outputs of its segment's first rep exactly.
  std::vector<const RepResult*> firsts;  // by segment
  for (const Rep& r : plain) {
    if (r.segment == static_cast<int>(firsts.size())) {
      firsts.push_back(&r.result);
    }
  }
  std::vector<std::string> violations;
  Digest digest;
  int64_t attempted = 0;
  for (const RepResult* r : firsts) {
    digest.Mix(SimDigest(r->sim));
    attempted += r->attempted;
  }
  for (const std::vector<Rep>* reps : {&plain, &traced}) {
    for (const Rep& r : *reps) {
      const RepResult& first = *firsts[static_cast<size_t>(r.segment)];
      violations.insert(violations.end(), r.result.violations.begin(),
                        r.result.violations.end());
      if (r.result.violations.empty() && SimDigest(r.result.sim) != SimDigest(first.sim)) {
        violations.push_back("segment " + std::to_string(r.segment) +
                             ": a same-seed rep produced different sim-clock outputs");
      }
    }
  }
  const auto failed = static_cast<int64_t>(violations.size());
  attempted = std::max<int64_t>(1, attempted);

  // Sim-clock metrics: the median over segments of each metric.
  Metrics sim;
  for (const Metric& m : firsts.front()->sim.all()) {
    std::vector<double> values;
    for (const RepResult* r : firsts) {
      values.push_back(r->sim.Get(m.name));
    }
    sim.Set(m.name, Median(values), m.unit);
  }

  const double run_s = MedianOf(plain, [](const Rep& r) { return r.result.run_s; });
  Metrics e2e;
  for (const Named& n : kEndToEnd) {
    e2e.Set(n.name, sim.Get(n.name), n.unit);
  }
  e2e.Set("setup_s", MedianOf(plain, [](const Rep& r) { return r.result.setup_s; }), "s");
  e2e.Set("run_s", run_s, "s");
  e2e.Set("peak_rss_mib", PeakRssMib(), "MiB");
  // A failed check counts as a failed operation.
  e2e.Set("ok_frac",
          std::max(0.0, sim.Get("ok_frac") -
                            static_cast<double>(failed) / static_cast<double>(attempted)),
          "frac");

  Metrics layer;
  for (const Named& n : kPerLayer) {
    layer.Set(n.name, 0.0, n.unit);
  }
  const auto fill = [&layer](const Metrics& from) {
    for (const Metric& m : from.all()) {
      if (layer.Find(m.name) != nullptr) {
        layer.Set(m.name, m.value, m.unit);
      }
    }
  };
  fill(sim);
  fill(ladder);
  for (const Metric& m : plain.front().result.host.all()) {
    layer.Set(m.name,
              MedianOf(plain, [&m](const Rep& r) { return r.result.host.Get(m.name); }),
              m.unit);
  }
  const double events = sim.Get("sim.events");
  layer.Set("sim.host_ns_per_event", events > 0 ? run_s / events * 1e9 : 0.0, "ns");
  Metrics trace_ops;
  if (!traced.empty()) {
    for (const Metric& m : traced.front().result.trace.all()) {
      trace_ops.Set(m.name,
                    MedianOf(traced, [&m](const Rep& r) { return r.result.trace.Get(m.name); }),
                    m.unit);
    }
    fill(trace_ops);
    layer.Set("trace.overhead_frac",
              MedianOf(traced, [](const Rep& r) {
                return r.result.run_s / r.paired_run_s - 1.0;
              }),
              "frac");
  }

  std::printf("reps untraced=%zu traced=%zu segments=%zu\n", plain.size(),
              traced.size(), firsts.size());
  for (size_t k = 0; k < firsts.size(); ++k) {
    std::printf("segment %zu seed=%" PRIu64 " digest=%016" PRIx64
                " sim_goodput=%.6g sim_p50_us=%.6g sim_p99_us=%.6g ok_frac=%.6g\n",
                k, args.seed * kSegments + k, SimDigest(firsts[k]->sim),
                firsts[k]->sim.Get("sim_goodput"), firsts[k]->sim.Get("sim_p50_us"),
                firsts[k]->sim.Get("sim_p99_us"), firsts[k]->sim.Get("ok_frac"));
  }
  std::printf("digest %016" PRIx64 "\n", digest.value());
  PrintMetrics("end_to_end", e2e);
  PrintMetrics("per_layer", layer);
  PrintMetrics("trace_op", trace_ops);
  for (const std::string& v : violations) {
    std::printf("VIOLATION %s\n", v.c_str());
  }
  if (args.trace) {
    if (!spans.Write(stem + ".host_trace.json")) {
      std::fprintf(stderr, "perfbench: could not write %s.host_trace.json\n",
                   stem.c_str());
    }
    sim_trace->Finish();
  }
  std::printf("%s\n", ResultJson(failed == 0, attempted, failed,
                                  args.trace ? layer : e2e)
                           .c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::optional<perfbench::Args> args = perfbench::Parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <pipeline|kv_steady|kv_reshape> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  return perfbench::Main(*args);
}
