// Per-op aggregation of the library's sim-time trace, read from outside.
//
// The Tracer keeps only the last ring_capacity events per machine, so the
// aggregator drains it incrementally: the workload calls Harvest() whenever
// NeedsHarvest() says fewer than half a ring of new events may be pending,
// which guarantees no event is overwritten before it is counted. Spans are
// paired begin -> end; a span's self time is its duration minus the union of
// its child spans' intervals.

#ifndef PERFBENCH_TRACE_AGG_H_
#define PERFBENCH_TRACE_AGG_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "quicksand/trace/trace.h"
#include "report.h"

namespace perfbench {

class SimTraceAggregator {
 public:
  explicit SimTraceAggregator(const quicksand::Tracer& tracer) : tracer_(tracer) {}

  SimTraceAggregator(const SimTraceAggregator&) = delete;
  SimTraceAggregator& operator=(const SimTraceAggregator&) = delete;

  bool NeedsHarvest() const {
    return tracer_.recorded() - harvested_ >= kHarvestEvery;
  }
  void Harvest();

  // Events the tracer recorded that were overwritten before a harvest saw
  // them (0 when the workload harvested often enough).
  int64_t missed() const { return tracer_.recorded() - harvested_; }
  // Ring-buffer overwrites across all machines (the tracer's own count).
  int64_t dropped() const;

  struct OpTotals {
    bool span = false;  // false: instants, which have no duration
    int64_t count = 0;
    int64_t self_ns = 0;
  };
  // Keyed by TraceOpName.
  const std::map<std::string, OpTotals>& totals() const { return totals_; }

 private:
  static constexpr int64_t kHarvestEvery = 1024;

  struct OpenSpan {
    quicksand::TraceOp op;
    quicksand::SpanId parent;
    int64_t begin_ns;
    std::vector<std::pair<int64_t, int64_t>> children;  // [begin, end)
  };

  void Consume(const quicksand::TraceEvent& e);

  const quicksand::Tracer& tracer_;
  int64_t harvested_ = 0;
  uint64_t last_seq_ = 0;
  std::unordered_map<quicksand::SpanId, OpenSpan> open_;
  std::map<std::string, OpTotals> totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_AGG_H_
