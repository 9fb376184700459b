// Tracer: causal, sim-time-accurate distributed tracing.
//
// Quicksand's claims are time shapes — sub-millisecond migration, 10–15 ms
// adaptation, fast failover — and aggregate counters cannot answer "where
// did this proclet's 14 ms go?". The tracer records spans (an operation
// with a begin and an end) and instant events (a point occurrence: a
// request leg sent, a suspicion raised, a write fenced) into per-machine
// ring buffers. A TraceContext — (trace id, parent span id, epoch) —
// propagates through RPC messages and migration commands, so spans recorded
// on different machines stitch into one causal tree per trace id.
//
// Three properties the rest of the repo leans on:
//
//  * sim-time accuracy: every event is stamped with Simulator::Now() plus a
//    global sequence number, so ordering is total and bit-reproducible;
//  * zero timing interference: recording never sleeps, never awaits, and
//    never touches the event queue — sim-time results are identical with
//    tracing on, off, or absent (the digest gate in scripts/ci.sh enforces
//    the reproducibility half of this);
//  * bounded memory: each machine keeps the last `ring_capacity` events in
//    a fixed ring (the flight-recorder property — see flight_recorder.h);
//    older events are overwritten, and the per-machine drop count records
//    how many.
//
// The single-threaded discrete-event core makes the rings trivially
// lock-free: recording is an array store and two increments.

#ifndef QUICKSAND_TRACE_TRACE_H_
#define QUICKSAND_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "quicksand/cluster/machine.h"
#include "quicksand/common/time.h"

namespace quicksand {

class Simulator;

using TraceId = uint64_t;
using SpanId = uint64_t;
inline constexpr TraceId kInvalidTraceId = 0;
inline constexpr SpanId kInvalidSpanId = 0;

// The wire-portable causal stamp. Riding inside Ctx, RPC calls, and
// migration commands, it names the tree (trace_id), the node new work hangs
// under (parent_span), and the fencing epoch the sender resolved (so fenced
// rejections are attributable to the stale stamp that caused them).
//
// The stamp also carries the request's end-to-end deadline. Putting it here
// rather than in a parallel side-channel means every hop that already
// propagates causality — RPC legs, retries, nested invocations — propagates
// the deadline for free, and a server can reject work that cannot finish in
// time at admission instead of performing it dead (overload/).
struct TraceContext {
  TraceId trace_id = kInvalidTraceId;
  SpanId parent_span = kInvalidSpanId;
  uint64_t epoch = 0;
  // Absolute end-to-end deadline; Max() = none. Inherited by child spans.
  SimTime deadline = SimTime::Max();

  bool valid() const { return trace_id != kInvalidTraceId; }

  bool has_deadline() const { return deadline != SimTime::Max(); }
  bool ExpiredAt(SimTime now) const { return now > deadline; }
  // Time left before the deadline; Max() when no deadline is set.
  Duration RemainingAt(SimTime now) const {
    return has_deadline() ? deadline - now : Duration::Max();
  }
  // A copy of this stamp carrying `d` (keeps the tighter of the two — a
  // nested call may shrink the budget, never extend it).
  TraceContext WithDeadline(SimTime d) const {
    TraceContext out = *this;
    out.deadline = d < out.deadline ? d : out.deadline;
    return out;
  }
};

// Closed vocabulary of things that happen. Digests, queries, and the
// exporter all key on this enum rather than free-form strings.
enum class TraceOp : uint8_t {
  kTrace,        // root marker emitted by StartTrace
  kSpawn,        // proclet created
  kDestroy,      // proclet deliberately destroyed
  kMigrate,      // gate->drain->copy->flip window (span)
  kSplit,        // shard split (instant, emitted by shard maintenance)
  kMerge,        // shard merge
  kInvoke,       // one proclet method invocation, caller side (span)
  kRpcSend,      // request leg handed to the fabric
  kRpcRecv,      // request leg delivered at the destination
  kRpcRetry,     // an invocation backs off before another attempt
  kRpcDrop,      // a leg vanished into a partition/lossy link
  kBounce,       // invocation hit a stale location and was redirected
  kCommit,       // a stamped request was admitted and applied
  kAbort,        // a stamped request was rejected (fenced) or a span failed
  kFence,        // a migration was rejected on a stale epoch
  kCheckpoint,   // incremental checkpoint captured and shipped
  kRestore,      // lost proclet adopted back into the directory
  kPromote,      // backup promoted in place of a lost primary
  kRecover,      // whole-machine recovery walk (span)
  kSuspect,      // failure detector suspected a machine
  kClearSuspect, // a late heartbeat exonerated a suspect
  kConfirmDead,  // detector confirmed a machine dead
  kCrash,        // fail-stop observed by the runtime
  kDeclareDead,  // gray-failure declaration (fenced out while maybe alive)
  kLost,         // a proclet's host died under it
  kEvacuate,     // revocation-deadline evacuation of one machine (span)
  kRpcShed,      // admission control shed the request before any work ran
  kDeadlineExpired,  // request rejected at admission: could not finish in time
  kStaleServe,   // read answered from the replication backup (degraded mode)
  kReshapeSplit,   // autoscaler split a hot shard (arg = bytes moved)
  kReshapeMerge,   // autoscaler merged cold neighbors (arg = bytes moved)
  kReshapeMigrate, // autoscaler moved a shard to an idle machine
  kReshapeDefer,   // reshape postponed: copy work would blow the SLO
  kMemoHit,        // content-addressed cache hit (detail: fresh/stale)
  kMemoMiss,       // cache miss: the invocation runs for real
  kMemoStaleServe, // degraded mode served a bounded-staleness memo hit
  kMemoEvict,      // LRU entry dropped for capacity (arg = bytes)
  kMemoHarvest,    // cache shards dropped under pressure (arg = bytes)
};

const char* TraceOpName(TraceOp op);

// Whether an event opens a span, closes one, or stands alone.
enum class TracePhase : uint8_t { kBegin, kEnd, kInstant };

struct TraceEvent {
  SimTime time;
  uint64_t seq = 0;  // global total-order tiebreaker
  TracePhase phase = TracePhase::kInstant;
  TraceOp op = TraceOp::kTrace;
  TraceId trace_id = kInvalidTraceId;
  SpanId span = kInvalidSpanId;    // span this event belongs to
  SpanId parent = kInvalidSpanId;  // enclosing span (causal edge)
  MachineId machine = kInvalidMachineId;
  uint64_t proclet = 0;  // ProcletId, 0 when not about a proclet
  uint64_t epoch = 0;    // fencing epoch carried by the context
  int64_t arg = 0;       // op-specific scalar: bytes, attempt, request id
  const char* detail = "";  // static string: status/outcome; never owned
};

struct TracerOptions {
  // Events retained per machine (the flight-recorder depth).
  size_t ring_capacity = 4096;
};

class Tracer {
 public:
  // Events are recorded against the ring of the machine they concern; the
  // tracer needs the machine count up front and the sim for timestamps.
  Tracer(Simulator& sim, size_t machines, TracerOptions options = TracerOptions{});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  size_t machines() const { return rings_.size(); }

  // Opens a new causal tree rooted at `machine` and returns its context.
  // `name` labels the root instant (static string only).
  TraceContext StartTrace(const char* name, MachineId machine);

  // Opens a span under `parent` (or as a new root trace when `parent` is
  // invalid). The returned context IS the child stamp: hand it to work done
  // on behalf of this span, on any machine.
  TraceContext BeginSpan(const TraceContext& parent, MachineId machine, TraceOp op,
                         uint64_t proclet = 0, int64_t arg = 0);

  // Closes the span opened as `span_ctx` (= the context BeginSpan returned).
  // No-op for invalid contexts or spans already closed.
  void EndSpan(const TraceContext& span_ctx, MachineId machine,
               const char* detail = "ok", int64_t arg = 0);

  // Records a point event under `parent` (invalid parent = free-standing).
  void Instant(const TraceContext& parent, MachineId machine, TraceOp op,
               uint64_t proclet = 0, int64_t arg = 0, const char* detail = "");

  // --- Retained-event access -----------------------------------------------

  // The last events recorded against `machine`, oldest first (at most
  // ring_capacity of them).
  std::vector<TraceEvent> MachineEvents(MachineId machine) const;
  // The last `n` events recorded against `machine`, oldest first.
  std::vector<TraceEvent> LastEvents(MachineId machine, size_t n) const;
  // Every retained event across all machines, in (time, seq) order.
  std::vector<TraceEvent> Snapshot() const;

  int64_t recorded() const { return recorded_; }
  int64_t dropped(MachineId machine) const;

  // Order-sensitive FNV-1a over every retained event (all fields, detail
  // strings byte-wise) plus the drop counts: two same-seed runs must
  // produce identical digests, and any reordering or content drift changes
  // the value. The CI trace-determinism gate compares these.
  uint64_t Digest() const;

 private:
  struct Ring {
    std::vector<TraceEvent> events;  // fixed capacity, circular
    size_t next = 0;                 // slot the next event lands in
    size_t size = 0;
    int64_t dropped = 0;
  };

  // Open-span bookkeeping so EndSpan can emit a fully-attributed end event.
  struct OpenSpan {
    TraceId trace_id = kInvalidTraceId;
    SpanId parent = kInvalidSpanId;
    TraceOp op = TraceOp::kTrace;
    uint64_t proclet = 0;
    uint64_t epoch = 0;
  };

  void Record(TraceEvent event);

  Simulator& sim_;
  TracerOptions options_;
  std::vector<Ring> rings_;
  std::vector<std::pair<SpanId, OpenSpan>> open_spans_;  // small, searched linearly
  TraceId next_trace_id_ = 1;
  SpanId next_span_id_ = 1;
  uint64_t next_seq_ = 1;
  int64_t recorded_ = 0;
};

// Ends a span when the enclosing frame unwinds — including through an
// exception — with whatever detail was set last ("abort" until a success
// path calls End()). Designed for coroutine frames: destruction happens at
// co_return or unwind, which is exactly when the span ends.
class SpanGuard {
 public:
  SpanGuard() = default;
  SpanGuard(Tracer* tracer, TraceContext span_ctx, MachineId machine)
      : tracer_(tracer), ctx_(span_ctx), machine_(machine) {}

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  SpanGuard(SpanGuard&& other) noexcept { *this = std::move(other); }
  SpanGuard& operator=(SpanGuard&& other) noexcept {
    Finish();
    tracer_ = other.tracer_;
    ctx_ = other.ctx_;
    machine_ = other.machine_;
    other.tracer_ = nullptr;
    return *this;
  }

  ~SpanGuard() { Finish(); }

  // The context to stamp child work with.
  const TraceContext& ctx() const { return ctx_; }

  // Closes the span now with an explicit outcome.
  void End(const char* detail, int64_t arg = 0) {
    if (tracer_ != nullptr && ctx_.valid()) {
      tracer_->EndSpan(ctx_, machine_, detail, arg);
    }
    tracer_ = nullptr;
  }

 private:
  void Finish() {
    if (tracer_ != nullptr && ctx_.valid()) {
      tracer_->EndSpan(ctx_, machine_, "abort");
    }
    tracer_ = nullptr;
  }

  Tracer* tracer_ = nullptr;
  TraceContext ctx_{};
  MachineId machine_ = kInvalidMachineId;
};

}  // namespace quicksand

#endif  // QUICKSAND_TRACE_TRACE_H_
