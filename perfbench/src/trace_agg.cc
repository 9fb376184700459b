#include "trace_agg.h"

#include <algorithm>

namespace perfbench {

using quicksand::TraceEvent;
using quicksand::TracePhase;

void SimTraceAggregator::Harvest() {
  const int64_t fresh = tracer_.recorded() - harvested_;
  if (fresh <= 0) {
    return;
  }
  std::vector<TraceEvent> events;
  for (quicksand::MachineId m = 0; m < tracer_.machines(); ++m) {
    for (const TraceEvent& e : tracer_.LastEvents(m, static_cast<size_t>(fresh))) {
      if (e.seq > last_seq_) {
        events.push_back(e);
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.seq < b.seq; });
  for (const TraceEvent& e : events) {
    Consume(e);
  }
  if (!events.empty()) {
    last_seq_ = events.back().seq;
  }
  harvested_ += static_cast<int64_t>(events.size());
}

int64_t SimTraceAggregator::dropped() const {
  int64_t total = 0;
  for (quicksand::MachineId m = 0; m < tracer_.machines(); ++m) {
    total += tracer_.dropped(m);
  }
  return total;
}

void SimTraceAggregator::Consume(const TraceEvent& e) {
  const int64_t now = e.time.nanos();
  switch (e.phase) {
    case TracePhase::kInstant:
      ++totals_[quicksand::TraceOpName(e.op)].count;
      return;
    case TracePhase::kBegin:
      open_[e.span] = OpenSpan{e.op, e.parent, now, {}};
      return;
    case TracePhase::kEnd:
      break;
  }
  auto it = open_.find(e.span);
  if (it == open_.end()) {
    return;  // began before tracing was attached
  }
  OpenSpan& span = it->second;
  // Union of the child intervals, clipped to this span.
  std::sort(span.children.begin(), span.children.end());
  int64_t covered = 0;
  int64_t reach = span.begin_ns;
  for (const auto& [begin, end] : span.children) {
    const int64_t from = std::max(begin, reach);
    const int64_t to = std::min(end, now);
    if (to > from) {
      covered += to - from;
      reach = to;
    }
  }
  OpTotals& totals = totals_[quicksand::TraceOpName(span.op)];
  totals.span = true;
  ++totals.count;
  totals.self_ns += (now - span.begin_ns) - covered;
  auto parent = open_.find(span.parent);
  if (parent != open_.end()) {
    parent->second.children.emplace_back(span.begin_ns, now);
  }
  open_.erase(it);
}

}  // namespace perfbench
