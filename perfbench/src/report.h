// Shared plumbing of the perfbench binary: named metrics with units, exact
// percentiles, the sim-time digest, host-clock spans and the host
// fingerprint. Nothing here touches the simulator; the workloads only call
// the library's public API and read its public counters.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// An ordered name -> (value, unit) list. Set() overwrites an existing name
// in place, so a list pre-filled with zeros keeps its order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;
  double Get(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Nearest-rank percentile of raw samples (sorts a copy); 0 when empty.
int64_t PercentileNs(std::vector<int64_t> samples, double p);
double Median(std::vector<double> values);

// FNV-1a, fed field by field.
class Digest {
 public:
  void Mix(uint64_t v);
  void Mix(double v);
  void Mix(const std::string& s);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

inline double HostNowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host-clock spans recorded by the benchmark's own code around each phase
// and ladder rung. Kept in memory; Write() emits a Chrome trace_event file.
class HostSpans {
 public:
  void Record(std::string name, double begin_s, double end_s);
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double begin_s;
    double end_s;
  };
  std::vector<Span> spans_;
};

// Times one phase: records a span when `spans` is non-null and returns the
// elapsed seconds from Stop().
class PhaseTimer {
 public:
  PhaseTimer(HostSpans* spans, std::string name)
      : spans_(spans), name_(std::move(name)), begin_(HostNowS()) {}
  double Stop();

 private:
  HostSpans* spans_;
  std::string name_;
  double begin_;
};

// nproc, CPU model, compiler, flags and build type, as one JSON object.
std::string HostFingerprintJson();

// Peak resident set of this process, in MiB.
double PeakRssMib();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
