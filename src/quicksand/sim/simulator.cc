#include "quicksand/sim/simulator.h"

#include <algorithm>
#include <utility>

#include "quicksand/common/logging.h"
#include "quicksand/sim/frame_pool.h"

namespace quicksand {

namespace {

SimTime LoggerClock(void* arg) { return static_cast<Simulator*>(arg)->Now(); }

}  // namespace

// The root coroutine wrapping every fiber body. Self-destroys at completion
// after notifying the simulator, so finished fibers hold no memory beyond
// their arena slot (released once the last Fiber handle drops).
struct Simulator::RootTask {
  struct promise_type {
    internal::FiberState* state = nullptr;

    // Root frames are as numerous as fibers — pool them like Task frames.
    static void* operator new(size_t bytes) { return FramePool::Alloc(bytes); }
    static void operator delete(void* p, size_t bytes) {
      FramePool::Free(p, bytes);
    }

    RootTask get_return_object() {
      return RootTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) const noexcept {
        internal::FiberState* state = h.promise().state;
        // Destroying at the final suspend point is legal; all locals are
        // already destroyed, only the frame itself remains.
        h.destroy();
        if (state != nullptr && state->sim != nullptr) {
          state->sim->FiberFinished(*state);
        }
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { state->error = std::current_exception(); }
  };

  std::coroutine_handle<promise_type> handle;
};

namespace {

Simulator::RootTask RunAsRoot(Task<> body) { co_await std::move(body); }

}  // namespace

Simulator::Simulator()
    : now_(SimTime::Zero()),
      fiber_arena_(std::make_shared<internal::FiberArena>()) {
  Logger::Get().SetClock(&LoggerClock, this);
}

Simulator::~Simulator() {
  tearing_down_ = true;
  while (live_head_ != nullptr) {
    internal::FiberState* state = live_head_;
    LiveListRemove(*state);
    std::coroutine_handle<> handle = state->handle;
    state->handle = {};
    handle.destroy();
    // The root coroutine's reference: dropping it may recycle the slot if no
    // Fiber handle is outstanding.
    DropRootRef(state);
  }
  live_fiber_count_ = 0;
  Logger::Get().ClearClock();
  // The now_lane_ and fns_ destructors release any still-pending callbacks.
}

// --- Now lane ---------------------------------------------------------------

void Simulator::GrowNowLane() {
  const size_t old_cap = now_lane_.size();
  const size_t new_cap = old_cap == 0 ? 64 : old_cap * 2;
  std::vector<SmallFn> grown(new_cap);
  for (size_t i = 0; i < now_count_; ++i) {
    grown[i] = std::move(now_lane_[(now_head_ + i) & (old_cap - 1)]);
  }
  now_lane_ = std::move(grown);
  now_head_ = 0;
}

void Simulator::NowLanePush(SmallFn fn) {
  if (now_count_ == now_lane_.size()) {
    GrowNowLane();
  }
  now_lane_[(now_head_ + now_count_) & (now_lane_.size() - 1)] = std::move(fn);
  ++now_count_;
}

SmallFn Simulator::NowLanePop() {
  QS_DCHECK(now_count_ > 0);
  SmallFn fn = std::move(now_lane_[now_head_]);
  now_head_ = (now_head_ + 1) & (now_lane_.size() - 1);
  --now_count_;
  return fn;
}

std::optional<int64_t> Simulator::EarliestEntryTimeNs() const {
  if (now_count_ > 0) {
    return now_.nanos();  // now-lane entries are at now_, before every timed one
  }
  if (!heap_.empty()) {
    return heap_.front().time_ns;
  }
  return std::nullopt;
}

// --- Scheduling -------------------------------------------------------------

void Simulator::Schedule(Duration delay, SmallFn fn) {
  if (delay < Duration::Zero()) {
    // Negative delays arise legitimately from absolute-time arithmetic on
    // deadlines already in the past (SleepUntil(t) with t < Now(), re-arming
    // a timeout after a stall). They mean "as soon as possible": clamp into
    // the now lane, where the event fires in FIFO order with other ready
    // work instead of time-travelling or aborting. A *hugely* negative delay
    // is not a past deadline, though — it is arithmetic underflow (e.g.
    // subtracting Duration::Max()), and silently clamping one would mask the
    // bug, so debug builds reject it.
    QS_DCHECK_MSG(delay.nanos() > INT64_MIN / 2,
                  "delay is absurdly negative: arithmetic underflow, not a "
                  "past deadline");
    delay = Duration::Zero();
  }
  ScheduleAt(now_ + delay, std::move(fn));
}

void Simulator::ScheduleAt(SimTime when, SmallFn fn) {
  if (tearing_down_) {
    return;  // drop wakeups scheduled by dying fibers
  }
  QS_CHECK_MSG(when >= now_, "cannot schedule an event in the past");
  if (when == now_) {
    NowLanePush(std::move(fn));  // seq is implicit: the ring is FIFO
    return;
  }
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    fns_[slot] = std::move(fn);
    fn_scheduled_ns_[slot] = now_.nanos();
  } else {
    QS_CHECK_MSG(fns_.size() < UINT32_MAX, "timed-event pool exhausted");
    slot = static_cast<uint32_t>(fns_.size());
    fns_.push_back(std::move(fn));
    fn_scheduled_ns_.push_back(now_.nanos());
  }
  heap_.push_back(TimedEntry{when.nanos(), next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), TimedGreater{});
}

void Simulator::Post(SmallFn fn) {
  if (tearing_down_) {
    return;  // mirror ScheduleAt
  }
  NowLanePush(std::move(fn));
}

// --- Execution --------------------------------------------------------------

bool Simulator::Step() {
  SmallFn fn;
  // A timed entry at time == now_ was scheduled before now_ reached that
  // time, hence precedes every now-lane entry (scheduled at now_) in
  // sequence order: timed-at-now fires before the now lane.
  if (!heap_.empty() &&
      (now_count_ == 0 || heap_.front().time_ns <= now_.nanos())) {
    const TimedEntry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), TimedGreater{});
    heap_.pop_back();
    QS_DCHECK(top.time_ns >= now_.nanos());
    now_ = SimTime::FromNanos(top.time_ns);
    fn = std::move(fns_[top.slot]);
    firing_scheduled_ns_ = fn_scheduled_ns_[top.slot];
    free_slots_.push_back(top.slot);
  } else if (now_count_ > 0) {
    fn = NowLanePop();
    firing_scheduled_ns_ = now_.nanos();
  } else {
    return false;
  }
  ++fired_events_;
  fn();
  return true;
}

void Simulator::RunUntilIdle() {
  while (Step()) {
  }
}

void Simulator::RunUntil(SimTime deadline) {
  for (;;) {
    const std::optional<int64_t> next = EarliestEntryTimeNs();
    if (!next.has_value() || *next > deadline.nanos()) {
      break;
    }
    Step();
  }
  if (deadline >= now_) {
    // Every event up to the deadline has fired, as if a now-lane event
    // fired last.
    now_ = deadline;
    firing_scheduled_ns_ = deadline.nanos();
  }
}

// --- Fibers -----------------------------------------------------------------

Fiber Simulator::Spawn(Task<> body, std::string name) {
  QS_CHECK_MSG(!tearing_down_, "Spawn during simulator teardown");
  internal::FiberState* state = fiber_arena_->Alloc();
  state->sim = this;
  state->id = next_fiber_id_++;
  state->name = std::move(name);
  state->refs = 1;  // the root coroutine's reference
  state->done = false;

  RootTask root = RunAsRoot(std::move(body));
  root.handle.promise().state = state;
  state->handle = root.handle;

  state->live_next = live_head_;
  state->live_prev = nullptr;
  if (live_head_ != nullptr) {
    live_head_->live_prev = state;
  }
  live_head_ = state;
  ++live_fiber_count_;

  // Start the fiber from the event loop (never synchronously inside Spawn),
  // so spawn order — not coroutine nesting — determines execution order.
  auto handle = root.handle;
  Post([handle] { handle.resume(); });
  return Fiber(fiber_arena_, state);
}

void Simulator::LiveListRemove(internal::FiberState& state) {
  if (state.live_prev != nullptr) {
    state.live_prev->live_next = state.live_next;
  } else {
    live_head_ = state.live_next;
  }
  if (state.live_next != nullptr) {
    state.live_next->live_prev = state.live_prev;
  }
  state.live_prev = nullptr;
  state.live_next = nullptr;
}

void Simulator::DropRootRef(internal::FiberState* state) {
  if (--state->refs == 0) {
    fiber_arena_->Release(state);
  }
}

void Simulator::FiberFinished(internal::FiberState& state) {
  state.done = true;
  state.handle = {};
  LiveListRemove(state);
  QS_DCHECK(live_fiber_count_ > 0);
  --live_fiber_count_;
  if (state.error && state.join_head == nullptr) {
    ++failed_fibers_;
    try {
      std::rethrow_exception(state.error);
    } catch (const std::exception& e) {
      QS_LOG_ERROR("sim", "fiber '%s' failed: %s", state.name.c_str(), e.what());
    } catch (...) {
      QS_LOG_ERROR("sim", "fiber '%s' failed with a non-std exception",
                   state.name.c_str());
    }
  }
  WakeJoiners(state);
  DropRootRef(&state);
}

void Simulator::WakeJoiners(internal::FiberState& state) {
  for (internal::JoinWaiter* waiter = state.join_head; waiter != nullptr;) {
    // The node lives in the joiner's frame; once resumed (later, from the now
    // lane) the frame moves past the await and the node dies — read `next`
    // before scheduling.
    internal::JoinWaiter* next = waiter->next;
    const std::coroutine_handle<> h = waiter->handle;
    Post([h] { h.resume(); });
    waiter = next;
  }
  state.join_head = nullptr;
  state.join_tail = nullptr;
}

}  // namespace quicksand
