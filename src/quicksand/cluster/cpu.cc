#include "quicksand/cluster/cpu.h"

#include <algorithm>

#include "quicksand/common/check.h"

namespace quicksand {

namespace {

bool ValidPriority(int priority) {
  return priority >= kPriorityHigh && priority <= kPriorityLow;
}

}  // namespace

// Awaiter that enqueues a request and suspends until the scheduler has
// serviced all of its work (or the cancel token fired). The request node
// lives in the awaiter, which lives in the calling coroutine's frame —
// stable across suspension.
struct CpuRunAwaiter {
  CpuScheduler& sched;
  Duration work;
  int priority;
  CpuCancelToken* token;
  CpuScheduler::Request request;

  bool await_ready() const noexcept {
    return work <= Duration::Zero() || (token != nullptr && token->cancelled());
  }
  void await_suspend(std::coroutine_handle<> h) {
    request.remaining = work;
    request.priority = priority;
    request.enqueued = sched.sim_.Now();
    request.waiter = h;
    request.token = token;
    if (token != nullptr) {
      QS_CHECK_MSG(token->sched_ == nullptr || token->sched_ == &sched,
                   "a CpuCancelToken may only cover one CpuScheduler at a time");
      token->sched_ = &sched;
      token->active_.push_back(&request);
    }
    sched.Enqueue(&request);
  }
  // Unserviced remainder; Zero when the work completed.
  Duration await_resume() const noexcept {
    if (!request.cancelled || request.remaining <= Duration::Zero()) {
      return Duration::Zero();
    }
    return request.remaining;
  }
};

void CpuCancelToken::Cancel() {
  cancelled_ = true;
  if (sched_ == nullptr) {
    return;
  }
  CpuScheduler* sched = sched_;
  sched_ = nullptr;
  sched->CancelToken(*this);
}

CpuScheduler::CpuScheduler(Simulator& sim, int num_cores, Duration quantum)
    : sim_(sim), quantum_(quantum), num_cores_(num_cores) {
  QS_CHECK(num_cores > 0);
  QS_CHECK(quantum > Duration::Zero());
  for (int i = 0; i < num_cores; ++i) {
    idle_cores_.push_back(static_cast<uint32_t>(i));
  }
  size_t capacity = 1;
  while (capacity <= static_cast<size_t>(num_cores)) {
    capacity *= 2;
  }
  slices_.resize(capacity);
  slices_mask_ = capacity - 1;
  cycle_.reserve(capacity);
}

CpuScheduler::~CpuScheduler() = default;

Task<> CpuScheduler::Run(Duration work, int priority) {
  QS_CHECK(ValidPriority(priority));
  if (halted_) {
    co_return;
  }
  co_await CpuRunAwaiter{*this, work, priority, nullptr, {}};
}

Task<Duration> CpuScheduler::RunCancellable(Duration work, int priority,
                                            CpuCancelToken& token) {
  QS_CHECK(ValidPriority(priority));
  if (token.cancelled() || halted_) {
    co_return work;
  }
  const Duration remaining = co_await CpuRunAwaiter{*this, work, priority, &token, {}};
  co_return remaining;
}

void CpuScheduler::Halt() {
  if (halted_) {
    return;
  }
  Advance(Here());
  halted_ = true;
  ++wake_generation_;
  wake_armed_ = false;
  const auto resume = [this](Request* request, int64_t remaining_ns) {
    request->remaining = Duration::Nanos(remaining_ns);
    request->cancelled = true;
    --runnable_[request->priority];
    --runnable_count_;
    Deregister(request);
    const std::coroutine_handle<> waiter = request->waiter;
    sim_.Post([waiter] { waiter.resume(); });
  };
  for (RunQueue& queue : ready_) {
    for (const Queued& queued : queue) {
      resume(queued.request, queued.remaining_ns);
    }
    queue.clear();
  }
  // Running requests resume in core order, each with the slice in progress
  // still unserviced.
  std::vector<Slice> running;
  for (size_t i = 0; i < slices_count_; ++i) {
    running.push_back(SliceAt(i));
  }
  std::sort(running.begin(), running.end(),
            [](const Slice& a, const Slice& b) { return a.core < b.core; });
  for (const Slice& slice : running) {
    resume(slice.request, slice.left_ns + (slice.end_ns - slice.start_ns));
    idle_cores_.push_back(slice.core);
  }
  slices_count_ = 0;
}

void CpuScheduler::Enqueue(Request* request) {
  QS_CHECK_MSG(!halted_, "Enqueue on a halted CpuScheduler");
  const Position here = Here();
  Advance(here);
  const int level = request->priority;
  const int64_t work = request->remaining.nanos();
  ready_[level].push_back(request, work, (work - 1) / quantum_.nanos(), here.time_ns);
  ++runnable_[level];
  ++runnable_count_;
  Dispatch(here.time_ns);
  ArmWake();
}

void CpuScheduler::Dispatch(int64_t now_ns) {
  if (halted_) {
    return;
  }
  while (!idle_cores_.empty()) {
    const int level = BestQueuedLevel();
    if (level == kLevels) {
      return;
    }
    const uint32_t core = idle_cores_.back();
    idle_cores_.pop_back();
    StartHead(core, level, now_ns);
  }
}

void CpuScheduler::StartHead(uint32_t core, int level, int64_t now_ns) {
  const Queued next = ready_[level].front();
  ready_[level].pop_front();
  if (next.enqueued_ns != kServiced) {
    queueing_delay_[level].Add(static_cast<double>(now_ns - next.enqueued_ns));
  }
  StartSlice(core, level, now_ns, next.request, next.remaining_ns, next.rounds);
}

void CpuScheduler::StartSlice(uint32_t core, int level, int64_t now_ns, Request* request,
                              int64_t remaining_ns, int64_t rounds) {
  const bool last = rounds == 0;
  const int64_t length = last ? remaining_ns : quantum_.nanos();
  // Written field by field in place: a copy of a freshly built Slice
  // stalls on store forwarding, and this runs once per quantum.
  Slice& slice = InsertSlice(now_ns + length);
  slice.order = next_order_++;
  slice.start_ns = now_ns;
  slice.left_ns = remaining_ns - length;
  slice.rounds = last ? 0 : rounds - 1;
  slice.request = request;
  slice.core = core;
  slice.level = static_cast<uint8_t>(level);
  slice.ends_request = last;
  if (last) {
    // The wake-up guarantees this boundary is applied at its own time.
    QS_CHECK_MSG(sim_.Now().nanos() == now_ns, "a request's last slice started late");
    ScheduleSliceEvent(slice);
  }
}

void CpuScheduler::ScheduleSliceEvent(const Slice& slice) {
  sim_.ScheduleAt(SimTime::FromNanos(slice.end_ns),
                  [this, end = slice.end_ns, order = slice.order] { OnSliceEvent(end, order); });
}

void CpuScheduler::CancelToken(CpuCancelToken& token) {
  Advance(Here());
  // CancelRequest mutates active_ via Deregister, so drain a copy.
  std::vector<void*> pending;
  pending.swap(token.active_);
  for (void* opaque : pending) {
    CancelRequest(static_cast<Request*>(opaque));
  }
  if (replan_) {
    ArmWake();
  }
}

void CpuScheduler::CancelRequest(Request* request) {
  request->cancelled = true;
  for (size_t i = 0; i < slices_count_; ++i) {
    Slice& slice = SliceAt(i);
    if (slice.request != request) {
      continue;
    }
    // Running: the current slice finishes (<= one quantum), and its end
    // completes the request with its remainder. Unless that end was already
    // going to complete it, the slice needs an event now.
    if (!slice.ends_request) {
      slice.ends_request = true;
      ScheduleSliceEvent(slice);
      replan_ = true;
    }
    return;
  }
  // Queued: remove and resume immediately with the full remainder.
  RunQueue& queue = ready_[request->priority];
  auto pos = std::find_if(queue.begin(), queue.end(),
                          [request](const Queued& queued) { return queued.request == request; });
  QS_CHECK_MSG(pos != queue.end(), "cancelled request not found in ready queue");
  request->remaining = Duration::Nanos(pos->remaining_ns);
  queue.erase(pos);
  --runnable_[request->priority];
  --runnable_count_;
  request->token = nullptr;  // already drained from the token's active list
  const std::coroutine_handle<> waiter = request->waiter;
  sim_.Post([waiter] { waiter.resume(); });
  replan_ = true;
}

void CpuScheduler::Deregister(Request* request) {
  CpuCancelToken* token = request->token;
  if (token == nullptr) {
    return;
  }
  request->token = nullptr;
  auto pos = std::find(token->active_.begin(), token->active_.end(), request);
  if (pos != token->active_.end()) {
    token->active_.erase(pos);
  }
}

// --- Quantum boundaries -------------------------------------------------------

CpuScheduler::Position CpuScheduler::Here() const {
  return Position{sim_.Now().nanos(), kForeign, sim_.firing_scheduled_at().nanos()};
}

bool CpuScheduler::Precedes(const Slice& slice, const Position& pos) {
  if (slice.end_ns != pos.time_ns) {
    return slice.end_ns < pos.time_ns;
  }
  if (pos.order != kForeign) {
    return slice.order < pos.order;
  }
  // The reference event was scheduled when the slice started.
  return slice.start_ns <= pos.scheduled_ns;
}

void CpuScheduler::Advance(const Position& pos) {
  while (slices_count_ > 0 && Precedes(SliceAt(0), pos)) {
    // The ring has a slot more than there are cores, so the one this
    // boundary vacates is not reused before EndSlice is done with it.
    const Slice& slice = SliceAt(0);
    PopFrontSlice();
    EndSlice(slice);
  }
}

void CpuScheduler::Sync() const {
  // A read changes nothing it could observe: replaying the boundaries up to
  // Now() only brings the state to where the reference model already is.
  auto* self = const_cast<CpuScheduler*>(this);
  self->Advance(Here());
  if (self->replan_) {
    self->ArmWake();
  }
}

void CpuScheduler::EndSlice(const Slice& slice) {
  total_busy_ += Duration::Nanos(slice.end_ns - slice.start_ns);
  if (!slice.ends_request) {
    // The core goes straight on: with the same request while nothing as
    // good is queued, else with the best level's head, the request going
    // to the back of its level (round-robin). Any other idle core means
    // every queue was empty, so Dispatch would start nothing more.
    const int best = BestQueuedLevel();
    if (best > slice.level) {
      StartSlice(slice.core, slice.level, slice.end_ns, slice.request, slice.left_ns,
                 slice.rounds);
    } else {
      ready_[slice.level].push_back(slice.request, slice.left_ns, slice.rounds, kServiced);
      StartHead(slice.core, best, slice.end_ns);
    }
    return;
  }
  FinishRequest(slice);
}

void CpuScheduler::FinishRequest(const Slice& slice) {
  Request* request = slice.request;
  QS_DCHECK(slice.left_ns == 0 || request->cancelled);
  request->remaining = Duration::Nanos(slice.left_ns);
  --runnable_[slice.level];
  --runnable_count_;
  Deregister(request);
  const std::coroutine_handle<> waiter = request->waiter;
  // Resume via the event queue so completion ordering matches event order.
  sim_.Post([waiter] { waiter.resume(); });
  idle_cores_.push_back(slice.core);
  Dispatch(slice.end_ns);
  replan_ = true;
}

void CpuScheduler::OnSliceEvent(int64_t end_ns, uint64_t order) {
  if (halted_) {
    return;
  }
  // Through this slice's own boundary, unless a read at the same time
  // already applied it.
  Advance(Position{end_ns, order + 1, 0});
  if (replan_) {
    ArmWake();
  }
}

void CpuScheduler::OnWake(uint64_t generation, uint64_t order) {
  if (halted_ || generation != wake_generation_) {
    return;
  }
  wake_armed_ = false;
  Advance(order == kForeign ? Here() : Position{sim_.Now().nanos(), order, 0});
  ArmWake();
}

void CpuScheduler::ArmWake() {
  replan_ = false;
  const int64_t when = NextWakeTime();
  if (when == INT64_MAX || (wake_armed_ && wake_ns_ <= when)) {
    return;  // an earlier wake-up plans again when it fires
  }
  const int64_t now = sim_.Now().nanos();
  QS_DCHECK(when >= now);
  ++wake_generation_;
  wake_armed_ = true;
  wake_ns_ = when;
  // A boundary due now that is still pending comes after the event firing
  // now; a now-lane wake-up comes after every boundary due now.
  const uint64_t order = when == now ? kForeign : next_order_;
  sim_.ScheduleAt(SimTime::FromNanos(when), [this, generation = wake_generation_, order] {
    OnWake(generation, order);
  });
}

int CpuScheduler::BestQueuedLevel() const {
  int level = 0;
  while (level < kLevels && ready_[level].empty()) {
    ++level;
  }
  return level;
}

int64_t CpuScheduler::NextWakeTime() {
  const int best_queued = BestQueuedLevel();
  const int64_t quantum = quantum_.nanos();
  int64_t when = INT64_MAX;
  int64_t first_event = INT64_MAX;  // the first slice event, which re-plans
  cycle_.clear();
  for (size_t i = 0; i < slices_count_; ++i) {
    const Slice& slice = SliceAt(i);
    if (slice.ends_request) {
      first_event = std::min(first_event, slice.end_ns);
    } else if (slice.level < best_queued) {
      // Nothing as good waits: the core keeps its grant until the last slice.
      when = std::min(when, slice.end_ns + slice.rounds * quantum);
    } else if (slice.level > best_queued) {
      // Yields its core to the queued level at this boundary.
      when = std::min(when, slice.end_ns);
    } else {
      cycle_.push_back(&slice);
    }
  }
  if (!cycle_.empty()) {
    // Round-robin at best_queued dispatches the queue, then the running
    // requests in boundary order, then the same again, one per boundary of
    // the cycle's cores. The first to start its last slice has the fewest
    // rounds left, and comes first in the cycle among those.
    const RunQueue& queue = ready_[best_queued];
    int64_t rounds = INT64_MAX;
    size_t first = 0;
    for (size_t i = 0; i < queue.size(); ++i) {
      if (queue[i].rounds < rounds) {
        rounds = queue[i].rounds;
        first = i;
        if (rounds == 0) {
          break;
        }
      }
    }
    for (size_t i = 0; i < cycle_.size() && rounds > 0; ++i) {
      if (cycle_[i]->rounds < rounds) {
        rounds = cycle_[i]->rounds;
        first = queue.size() + i;
      }
    }
    const int64_t cores = static_cast<int64_t>(cycle_.size());
    const int64_t boundary =
        static_cast<int64_t>(first) + rounds * (static_cast<int64_t>(queue.size()) + cores);
    when = std::min(when, cycle_[static_cast<size_t>(boundary % cores)]->end_ns +
                              boundary / cores * quantum);
  }
  return when >= first_event ? INT64_MAX : when;
}

CpuScheduler::Slice& CpuScheduler::InsertSlice(int64_t end_ns) {
  QS_DCHECK(slices_count_ < slices_.size());
  // Orders only grow, so the new slice goes after every slice that ends no
  // later; a full quantum started now is the latest of all.
  size_t i = slices_count_;
  while (i > 0 && SliceAt(i - 1).end_ns > end_ns) {
    SliceAt(i) = SliceAt(i - 1);
    --i;
  }
  ++slices_count_;
  Slice& slice = SliceAt(i);
  slice.end_ns = end_ns;
  return slice;
}

void CpuScheduler::PopFrontSlice() {
  slices_head_ = (slices_head_ + 1) & slices_mask_;
  --slices_count_;
}

// --- Signals --------------------------------------------------------------------

Duration CpuScheduler::QueueingDelay(int priority) const {
  Sync();
  if (!ValidPriority(priority)) {
    return Duration::Zero();
  }
  return Duration::Nanos(static_cast<int64_t>(queueing_delay_[priority].value()));
}

Duration CpuScheduler::OldestWaitingAge(int priority) const {
  Sync();
  if (!ValidPriority(priority) || ready_[priority].empty()) {
    return Duration::Zero();
  }
  return sim_.Now() - ready_[priority].front().request->enqueued;
}

int64_t CpuScheduler::RunnableAbove(int priority) const {
  Sync();
  int64_t count = 0;
  for (int level = kPriorityHigh; level < std::min(priority, kLevels); ++level) {
    count += runnable_[level];
  }
  return count;
}

int64_t CpuScheduler::runnable_count() const {
  Sync();
  return runnable_count_;
}

int64_t CpuScheduler::queued_count(int priority) const {
  Sync();
  return ValidPriority(priority) ? static_cast<int64_t>(ready_[priority].size()) : 0;
}

double CpuScheduler::LoadFactor() const {
  Sync();
  return static_cast<double>(runnable_count_) / static_cast<double>(num_cores_);
}

Duration CpuScheduler::TotalBusy() const {
  Sync();
  return total_busy_;
}

double CpuScheduler::UtilizationSince(SimTime earlier, Duration busy_at_earlier) const {
  Sync();
  const Duration wall = sim_.Now() - earlier;
  if (wall <= Duration::Zero()) {
    return 0.0;
  }
  const Duration busy = total_busy_ - busy_at_earlier;
  return busy / (wall * num_cores());
}

}  // namespace quicksand
