// Simulator: the discrete-event core.
//
// A single logical event queue orders all activity by (virtual time, insertion
// sequence). Coroutines suspend by scheduling their own resumption — directly
// for Sleep, or indirectly through WaitQueue-based primitives. The whole
// simulation is single-threaded and deterministic: a given program and seed
// always produce the same event order.
//
// The implementation is built for million-event throughput (DESIGN.md §12):
//
//  * Event records live in a flat slab with inline small-callback storage
//    (SmallFn) and generation-tagged slots. Schedule, Cancel, and fire are
//    O(1) slot operations with zero hashing and — for the common small
//    lambda — zero allocation. An EventId encodes (slot index, generation);
//    a stale id (already fired or cancelled) simply fails its generation
//    check, so Cancel of anything is a safe no-op.
//  * The queue itself is two timed tiers fronted by a FIFO "now lane":
//      - now lane: a ring of events scheduled at exactly Now(). Spawn,
//        Yield, and every WaitQueue wakeup land here — the dominant event
//        class — and fire in strict FIFO order for O(1) push/pop. These
//        arrive via Post(), which stores the callback inline in the ring
//        (no cancellation handle, so no slab slot and no random access).
//      - rung: a sorted run covering the next kRungWidth of virtual time,
//        drained from the front; near-future timers (cpu slices, short
//        sleeps) insert here, almost always at the tail.
//      - heap: a min-heap of plain 24-byte records for everything beyond
//        the rung window, plus overflow from a dense window (the rung is
//        size-capped so its sorted insert never turns O(n)); refilling the
//        rung pops the heap's prefix (which emerges already sorted), and
//        Step() merges the rung and heap fronts.
//    Ordering is bit-identical to a single (time, seq) priority queue: timed
//    entries at time T were all scheduled before Now() reached T, so they
//    precede every now-lane entry at T (scheduled at T) in sequence order,
//    and the rung/heap merge preserves (time, seq) across the split.

#ifndef QUICKSAND_SIM_SIMULATOR_H_
#define QUICKSAND_SIM_SIMULATOR_H_

#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "quicksand/common/check.h"
#include "quicksand/common/time.h"
#include "quicksand/sim/fiber.h"
#include "quicksand/sim/small_fn.h"
#include "quicksand/sim/task.h"

namespace quicksand {

// Identifies a scheduled event so it can be cancelled (a timeout that is
// no longer needed). The library itself never cancels: the callers are
// bench/scale_sim's timeout cells and the simulator tests.
// Encodes (slot index + 1) << 32 | slot generation; 0 is never produced.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // --- Event scheduling -----------------------------------------------------

  // Negative delays are clamped to zero (see simulator.cc for the rationale).
  EventId Schedule(Duration delay, SmallFn fn);
  EventId ScheduleAt(SimTime when, SmallFn fn);
  // Fires `fn` at Now(), in FIFO order with every other now-lane event, but
  // without a cancellation handle: the callback lives inline in the ring, so
  // the slab (and its two dependent random accesses per event) is bypassed
  // entirely. This is the fast path for the dominant event class — Spawn
  // starts, Yield, and wait-queue wakeups — none of which are ever cancelled.
  void Post(SmallFn fn);
  // Cancelling an already-fired or unknown event is a no-op.
  void Cancel(EventId id);

  // --- Fibers ---------------------------------------------------------------

  // Starts `body` as a detached fiber at the current time.
  Fiber Spawn(Task<> body, std::string name = "");

  // Runs `body` to completion, advancing virtual time as needed, and returns
  // its result. Aborts if the simulation deadlocks (event queue empties while
  // the task is still suspended). Intended for tests and benchmark drivers.
  template <typename T>
  T BlockOn(Task<T> body);

  // --- Execution ------------------------------------------------------------

  // Processes a single event, advancing time to it. Returns false if the
  // queue is empty.
  bool Step();

  // Processes events until the queue is empty.
  void RunUntilIdle();

  // Processes all events with time <= deadline, then sets Now() == deadline.
  void RunUntil(SimTime deadline);
  void RunFor(Duration d) { RunUntil(now_ + d); }

  // --- Awaitables -----------------------------------------------------------

  // co_await sim.Sleep(d): resume after d of virtual time. A non-positive
  // delay resumes inline without suspending (the fiber keeps running ahead of
  // queued events) — SleepUntil on a past deadline must not reorder the
  // caller behind unrelated work.
  auto Sleep(Duration d) {
    struct Awaiter {
      Simulator& sim;
      Duration delay;
      bool await_ready() const noexcept { return delay <= Duration::Zero(); }
      void await_suspend(std::coroutine_handle<> h) {
        sim.Schedule(delay, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  // co_await sim.SleepUntil(t): resume at absolute time t (immediately if past).
  auto SleepUntil(SimTime t) { return Sleep(t - now_); }

  // co_await sim.Yield(): requeue behind events already pending at Now().
  auto Yield() {
    struct Awaiter {
      Simulator& sim;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim.Post([h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  // --- Introspection --------------------------------------------------------

  size_t live_fiber_count() const { return live_fiber_count_; }
  int64_t failed_fiber_count() const { return failed_fibers_; }
  // Scheduled-but-not-yet-fired events, excluding cancelled ones. Tracked as
  // a direct live counter on the slab: the old queue-size-minus-cancelled-set
  // arithmetic silently underflowed when a cancelled id was double-counted.
  size_t pending_event_count() const { return live_events_; }
  // Total events fired since construction (perf accounting for benches).
  int64_t fired_event_count() const { return fired_events_; }

  // Implementation detail of Spawn; public only so the root-wrapping
  // coroutine in simulator.cc can name it.
  struct RootTask;

 private:
  // One slab slot. gen is odd while the slot holds a live event and even
  // while it is free; an EventId carries the odd gen it was allocated with,
  // so any pop or Cancel of a stale id fails the equality check.
  struct EventSlot {
    uint32_t gen = 0;
    uint32_t next_free = 0;
    SmallFn fn;
  };

  // A timed-tier record: 24 bytes, no indirection. Ordered by (time, seq).
  struct TimedEntry {
    int64_t time_ns;
    uint64_t seq;
    EventId id;
  };
  struct TimedGreater {
    bool operator()(const TimedEntry& a, const TimedEntry& b) const {
      if (a.time_ns != b.time_ns) {
        return a.time_ns > b.time_ns;
      }
      return a.seq > b.seq;
    }
  };

  // Width of the rung (tier-1) window of virtual time. Wide enough that cpu
  // slices and short sleeps land in the rung (sorted-run insert, usually at
  // the tail), narrow enough that a refill stays a small batch.
  static constexpr int64_t kRungWidthNs = 64 * 1000;
  // The rung is a performance heuristic, not a correctness boundary: Step()
  // compares the rung and heap fronts, so an entry inside the window may
  // legally overflow to the heap. RungInsert only ever appends at the tail
  // (non-tail inserts go to the heap instead — a mid-run insert is an O(n)
  // memmove), and this cap bounds the rung's live length so a dense window
  // (100k+ timers at the million-proclet scale) cannot bloat it.
  static constexpr size_t kMaxRungEntries = 4096;

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // A now-lane ring entry. id == kInvalidEventId marks a Post() event whose
  // callback lives inline (uncancellable, so no slab slot is needed);
  // otherwise the entry is a slab-backed Schedule-at-now event.
  struct NowEntry {
    EventId id = kInvalidEventId;
    SmallFn fn;
  };

  EventId AllocSlot(SmallFn fn);
  // Returns the slot for a live id, or nullptr if the id is stale/invalid.
  EventSlot* ResolveLive(EventId id);
  void FreeSlot(EventId id);

  void NowLanePush(NowEntry entry);
  NowEntry NowLanePop();
  void GrowNowLane();

  void RungInsert(TimedEntry entry);
  void RefillRung();
  void HeapPush(TimedEntry entry);

  // Earliest entry (live or cancelled) across all tiers; nullopt when empty.
  // Includes cancelled entries deliberately: RunUntil's deadline check has
  // always been against the raw queue head.
  std::optional<int64_t> EarliestEntryTimeNs() const;

  void FiberFinished(internal::FiberState& state);
  void WakeJoiners(internal::FiberState& state);
  void DropRootRef(internal::FiberState* state);
  void LiveListRemove(internal::FiberState& state);

  SimTime now_;
  uint64_t next_seq_ = 1;
  uint64_t next_fiber_id_ = 1;
  bool tearing_down_ = false;
  int64_t failed_fibers_ = 0;

  // Event slab.
  std::vector<EventSlot> slots_;
  uint32_t free_head_ = kNoSlot;
  size_t live_events_ = 0;
  int64_t fired_events_ = 0;

  // Now lane: power-of-two ring of entries at time == now_. Post() events
  // carry their callback inline; Schedule-at-now events reference the slab.
  std::vector<NowEntry> now_lane_;
  size_t now_head_ = 0;
  size_t now_count_ = 0;

  // Rung: sorted by (time, seq), drained from rung_pos_; holds near-future
  // entries (inserted while < rung_end_ns_, or batched in by RefillRung).
  // Heap: min-heap over (time, seq) for everything else, including overflow
  // from a dense rung window. Step() merges the two fronts.
  std::vector<TimedEntry> rung_;
  size_t rung_pos_ = 0;
  int64_t rung_end_ns_ = 0;
  std::vector<TimedEntry> heap_;

  // Fiber table: chunked arena plus an intrusive list of live fibers.
  std::shared_ptr<internal::FiberArena> fiber_arena_;
  internal::FiberState* live_head_ = nullptr;
  size_t live_fiber_count_ = 0;
};

template <typename T>
T Simulator::BlockOn(Task<T> body) {
  std::optional<T> result;
  // A free coroutine (not a capturing lambda) so all state lives in the frame.
  struct Runner {
    static Task<> Run(Task<T> inner, std::optional<T>& out) {
      out.emplace(co_await std::move(inner));
    }
  };
  Fiber fiber = Spawn(Runner::Run(std::move(body), result), "block_on");
  while (!fiber.done()) {
    QS_CHECK_MSG(Step(), "Simulator::BlockOn deadlocked: event queue empty");
  }
  QS_CHECK_MSG(!fiber.failed(), "Simulator::BlockOn task failed with an exception");
  return std::move(*result);
}

template <>
inline void Simulator::BlockOn(Task<void> body) {
  struct Runner {
    static Task<> Run(Task<void> inner) { co_await std::move(inner); }
  };
  Fiber fiber = Spawn(Runner::Run(std::move(body)), "block_on");
  while (!fiber.done()) {
    QS_CHECK_MSG(Step(), "Simulator::BlockOn deadlocked: event queue empty");
  }
  QS_CHECK_MSG(!fiber.failed(), "Simulator::BlockOn task failed with an exception");
}

}  // namespace quicksand

#endif  // QUICKSAND_SIM_SIMULATOR_H_
