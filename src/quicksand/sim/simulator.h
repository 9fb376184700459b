// Simulator: the discrete-event core.
//
// A single logical event queue orders all activity by (virtual time, insertion
// sequence). Coroutines suspend by scheduling their own resumption — directly
// for Sleep, or indirectly through WaitQueue-based primitives. The whole
// simulation is single-threaded and deterministic: a given program and seed
// always produce the same event order.
//
// The queue is a FIFO now lane in front of one binary min-heap (DESIGN.md §12):
//
//  * now lane: a power-of-two ring of callbacks due at exactly Now(). Spawn,
//    Yield, every WaitQueue wakeup and every zero-delay Schedule land here —
//    the dominant event class — and fire in FIFO order, O(1) each way.
//  * heap: a std::push_heap/pop_heap min-heap of 24-byte (time, seq, slot)
//    records for everything later than Now(). The callback itself waits in a
//    pool (a vector of SmallFn plus a stack of free slot indices) and the
//    record names its slot. The 64-byte SmallFn stays out of the record on
//    purpose: with it inside, perfbench ran 3-19% slower, most likely
//    because every sift step then relocates a SmallFn through its
//    type-erased ops instead of copying 24 bytes.
//
// The order is bit-identical to a single (time, seq) priority queue. Timed
// entries carry a seq and the heap orders them by (time, seq). A timed entry
// at time T was scheduled before Now() reached T, so it precedes every
// now-lane entry at T (scheduled at T) in sequence order: Step() fires the
// heap front first whenever its time is <= Now(), and the now lane's FIFO
// order is its sequence order.
//
// Events cannot be cancelled. A caller that no longer wants a scheduled
// callback makes the callback check a flag of its own.

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

class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // --- Event scheduling -----------------------------------------------------

  // Negative delays are clamped to zero (see simulator.cc for the rationale).
  void Schedule(Duration delay, SmallFn fn);
  void ScheduleAt(SimTime when, SmallFn fn);
  // Fires `fn` at Now(), in FIFO order with every other now-lane event: the
  // same as Schedule(Duration::Zero(), fn). Spawn starts, Yield and
  // wait-queue wakeups take this path.
  void Post(SmallFn fn);

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
  // Scheduled-but-not-yet-fired events.
  size_t pending_event_count() const { return now_count_ + heap_.size(); }
  // Total events fired since construction (perf accounting for benches).
  int64_t fired_event_count() const { return fired_events_; }

  // Implementation detail of Spawn; public only so the root-wrapping
  // coroutine in simulator.cc can name it.
  struct RootTask;

 private:
  // A heap record: 24 bytes, ordered by (time, seq); `slot` indexes fns_.
  struct TimedEntry {
    int64_t time_ns;
    uint64_t seq;
    uint32_t slot;
  };
  struct TimedGreater {
    bool operator()(const TimedEntry& a, const TimedEntry& b) const {
      if (a.time_ns != b.time_ns) {
        return a.time_ns > b.time_ns;
      }
      return a.seq > b.seq;
    }
  };

  void NowLanePush(SmallFn fn);
  SmallFn NowLanePop();
  void GrowNowLane();

  // Earliest pending event time; nullopt when nothing is pending.
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
  int64_t fired_events_ = 0;

  // Now lane: power-of-two ring of callbacks due at time == now_.
  std::vector<SmallFn> now_lane_;
  size_t now_head_ = 0;
  size_t now_count_ = 0;

  // Timed events: the min-heap of records and the pool their callbacks wait
  // in. A slot is pushed on free_slots_ when its event fires.
  std::vector<TimedEntry> heap_;
  std::vector<SmallFn> fns_;
  std::vector<uint32_t> free_slots_;

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
