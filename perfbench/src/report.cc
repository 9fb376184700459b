#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void Metrics::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

const Metric* Metrics::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

double Metrics::Get(const std::string& name) const {
  const Metric* m = Find(name);
  return m != nullptr ? m->value : 0.0;
}

int64_t PercentileNs(std::vector<int64_t> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Digest::Mix(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::Mix(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Mix(bits);
}

void Digest::Mix(const std::string& s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
  Mix(static_cast<uint64_t>(s.size()));
}

void HostSpans::Record(std::string name, double begin_s, double end_s) {
  spans_.push_back({std::move(name), begin_s, end_s});
}

bool HostSpans::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const double origin = spans_.empty() ? 0.0 : spans_.front().begin_s;
  std::fprintf(out, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, "
                 "\"ts\": %.3f, \"dur\": %.3f}%s\n",
                 JsonEscape(s.name).c_str(), (s.begin_s - origin) * 1e6,
                 (s.end_s - s.begin_s) * 1e6, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

double PhaseTimer::Stop() {
  const double end = HostNowS();
  if (spans_ != nullptr) {
    spans_->Record(name_, begin_, end);
  }
  return end - begin_;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string HostFingerprintJson() {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"flags\": \"%s\"}",
                sysconf(_SC_NPROCESSORS_ONLN), JsonEscape(CpuModel()).c_str(),
                JsonEscape(Compiler()).c_str(), PERFBENCH_BUILD_TYPE,
                JsonEscape(PERFBENCH_CXX_FLAGS).c_str());
  return buf;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
