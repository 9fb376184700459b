#include "quicksand/trace/trace.h"

#include <algorithm>

#include "quicksand/common/check.h"
#include "quicksand/sim/simulator.h"

namespace quicksand {

const char* TraceOpName(TraceOp op) {
  switch (op) {
    case TraceOp::kTrace: return "trace";
    case TraceOp::kSpawn: return "spawn";
    case TraceOp::kDestroy: return "destroy";
    case TraceOp::kMigrate: return "migrate";
    case TraceOp::kSplit: return "split";
    case TraceOp::kMerge: return "merge";
    case TraceOp::kInvoke: return "invoke";
    case TraceOp::kRpcSend: return "rpc_send";
    case TraceOp::kRpcRecv: return "rpc_recv";
    case TraceOp::kRpcRetry: return "rpc_retry";
    case TraceOp::kRpcDrop: return "rpc_drop";
    case TraceOp::kBounce: return "bounce";
    case TraceOp::kCommit: return "commit";
    case TraceOp::kAbort: return "abort";
    case TraceOp::kFence: return "fence";
    case TraceOp::kCheckpoint: return "checkpoint";
    case TraceOp::kRestore: return "restore";
    case TraceOp::kPromote: return "promote";
    case TraceOp::kRecover: return "recover";
    case TraceOp::kSuspect: return "suspect";
    case TraceOp::kClearSuspect: return "clear_suspect";
    case TraceOp::kConfirmDead: return "confirm_dead";
    case TraceOp::kCrash: return "crash";
    case TraceOp::kDeclareDead: return "declare_dead";
    case TraceOp::kLost: return "lost";
    case TraceOp::kEvacuate: return "evacuate";
    case TraceOp::kRpcShed: return "rpc_shed";
    case TraceOp::kDeadlineExpired: return "deadline_expired";
    case TraceOp::kStaleServe: return "stale_serve";
    case TraceOp::kReshapeSplit: return "reshape_split";
    case TraceOp::kReshapeMerge: return "reshape_merge";
    case TraceOp::kReshapeMigrate: return "reshape_migrate";
    case TraceOp::kReshapeDefer: return "reshape_defer";
    case TraceOp::kMemoHit: return "memo_hit";
    case TraceOp::kMemoMiss: return "memo_miss";
    case TraceOp::kMemoStaleServe: return "memo_stale_serve";
    case TraceOp::kMemoEvict: return "memo_evict";
    case TraceOp::kMemoHarvest: return "memo_harvest";
  }
  return "?";
}

Tracer::Tracer(Simulator& sim, size_t machines, TracerOptions options)
    : sim_(sim), options_(options), rings_(machines) {
  QS_CHECK(options_.ring_capacity > 0);
  for (Ring& ring : rings_) {
    ring.events.resize(options_.ring_capacity);
  }
}

void Tracer::Record(TraceEvent event) {
  QS_CHECK(event.machine < rings_.size());
  event.time = sim_.Now();
  event.seq = next_seq_++;
  Ring& ring = rings_[event.machine];
  if (ring.size == ring.events.size()) {
    ++ring.dropped;  // the slot we are about to overwrite
  } else {
    ++ring.size;
  }
  ring.events[ring.next] = event;
  ring.next = (ring.next + 1) % ring.events.size();
  ++recorded_;
}

TraceContext Tracer::StartTrace(const char* name, MachineId machine) {
  TraceContext root;
  root.trace_id = next_trace_id_++;
  root.parent_span = kInvalidSpanId;
  TraceEvent event;
  event.phase = TracePhase::kInstant;
  event.op = TraceOp::kTrace;
  event.trace_id = root.trace_id;
  event.machine = machine;
  event.detail = name;
  Record(event);
  return root;
}

TraceContext Tracer::BeginSpan(const TraceContext& parent, MachineId machine,
                               TraceOp op, uint64_t proclet, int64_t arg) {
  // Snapshot `parent` before constructing the result: callers write
  // `ctx = BeginSpan(ctx, ...)`, and under GCC 12's coroutine codegen the
  // returned object can be constructed directly in the caller's `ctx`
  // storage, making `parent` alias the context being built. Reading
  // `parent` after writing `ctx` would then observe the new span as its
  // own parent.
  const bool rooted = parent.valid();
  const TraceId parent_trace = parent.trace_id;
  const SpanId parent_span = parent.parent_span;
  const uint64_t epoch = parent.epoch;
  const SimTime deadline = parent.deadline;

  TraceContext ctx;
  ctx.trace_id = rooted ? parent_trace : next_trace_id_++;
  ctx.parent_span = next_span_id_++;
  ctx.epoch = epoch;
  ctx.deadline = deadline;

  OpenSpan open;
  open.trace_id = ctx.trace_id;
  open.parent = parent_span;
  open.op = op;
  open.proclet = proclet;
  open.epoch = epoch;
  open_spans_.emplace_back(ctx.parent_span, open);

  TraceEvent event;
  event.phase = TracePhase::kBegin;
  event.op = op;
  event.trace_id = ctx.trace_id;
  event.span = ctx.parent_span;
  event.parent = parent_span;
  event.machine = machine;
  event.proclet = proclet;
  event.epoch = epoch;
  event.arg = arg;
  Record(event);
  return ctx;
}

void Tracer::EndSpan(const TraceContext& span_ctx, MachineId machine,
                     const char* detail, int64_t arg) {
  if (!span_ctx.valid() || span_ctx.parent_span == kInvalidSpanId) {
    return;
  }
  auto it = std::find_if(open_spans_.begin(), open_spans_.end(),
                         [&](const auto& entry) {
                           return entry.first == span_ctx.parent_span;
                         });
  if (it == open_spans_.end()) {
    return;  // already closed
  }
  TraceEvent event;
  event.phase = TracePhase::kEnd;
  event.op = it->second.op;
  event.trace_id = it->second.trace_id;
  event.span = span_ctx.parent_span;
  event.parent = it->second.parent;
  event.machine = machine;
  event.proclet = it->second.proclet;
  event.epoch = it->second.epoch;
  event.arg = arg;
  event.detail = detail;
  open_spans_.erase(it);
  Record(event);
}

void Tracer::Instant(const TraceContext& parent, MachineId machine, TraceOp op,
                     uint64_t proclet, int64_t arg, const char* detail) {
  TraceEvent event;
  event.phase = TracePhase::kInstant;
  event.op = op;
  event.trace_id = parent.trace_id;
  event.parent = parent.parent_span;
  event.machine = machine;
  event.proclet = proclet;
  event.epoch = parent.epoch;
  event.arg = arg;
  event.detail = detail;
  Record(event);
}

std::vector<TraceEvent> Tracer::MachineEvents(MachineId machine) const {
  return LastEvents(machine, options_.ring_capacity);
}

std::vector<TraceEvent> Tracer::LastEvents(MachineId machine, size_t n) const {
  QS_CHECK(machine < rings_.size());
  const Ring& ring = rings_[machine];
  const size_t count = std::min(n, ring.size);
  std::vector<TraceEvent> out;
  out.reserve(count);
  // Oldest of the last `count`: walk backwards from next_, then reverse.
  const size_t cap = ring.events.size();
  const size_t start = (ring.next + cap - count) % cap;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(ring.events[(start + i) % cap]);
  }
  return out;
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> all;
  all.reserve(static_cast<size_t>(std::min<int64_t>(
      recorded_, static_cast<int64_t>(rings_.size() * options_.ring_capacity))));
  for (MachineId m = 0; m < rings_.size(); ++m) {
    std::vector<TraceEvent> events = MachineEvents(m);
    all.insert(all.end(), events.begin(), events.end());
  }
  std::sort(all.begin(), all.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.seq < b.seq;
  });
  return all;
}

int64_t Tracer::dropped(MachineId machine) const {
  QS_CHECK(machine < rings_.size());
  return rings_[machine].dropped;
}

namespace {

inline void FnvMix(uint64_t& hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= 1099511628211ull;
  }
}

inline void FnvMixString(uint64_t& hash, const char* s) {
  for (; s != nullptr && *s != '\0'; ++s) {
    hash ^= static_cast<unsigned char>(*s);
    hash *= 1099511628211ull;
  }
  hash ^= 0xff;  // terminator so "ab"+"c" != "a"+"bc"
  hash *= 1099511628211ull;
}

}  // namespace

uint64_t Tracer::Digest() const {
  uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  for (MachineId m = 0; m < rings_.size(); ++m) {
    FnvMix(hash, static_cast<uint64_t>(rings_[m].dropped));
    for (const TraceEvent& e : MachineEvents(m)) {
      FnvMix(hash, static_cast<uint64_t>(e.time.nanos()));
      FnvMix(hash, e.seq);
      FnvMix(hash, static_cast<uint64_t>(e.phase));
      FnvMixString(hash, TraceOpName(e.op));
      FnvMix(hash, e.trace_id);
      FnvMix(hash, e.span);
      FnvMix(hash, e.parent);
      FnvMix(hash, e.machine);
      FnvMix(hash, e.proclet);
      FnvMix(hash, e.epoch);
      FnvMix(hash, static_cast<uint64_t>(e.arg));
      FnvMixString(hash, e.detail);
    }
  }
  return hash;
}

}  // namespace quicksand
