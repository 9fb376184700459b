// CpuScheduler: models contention for a machine's cores.
//
// Work is expressed as "consume D of core time at priority p". Cores serve a
// priority run queue in fixed quanta (round-robin within a priority level),
// so a newly arriving high-priority request waits at most one quantum for a
// core. This is how the phased antagonist of Fig. 1 starves the filler
// application: its priority-0 requests occupy every core, and the filler's
// priority-1 requests observe a queueing-delay spike — the signal the local
// scheduler reacts to (§5 suggests queueing delay for idle-core detection,
// citing Breakwater).
//
// Quanta without events. The reference model gives every slice an event
// that fires at its end: the request moves to the back of its level (or
// finishes) and the core takes the head of the best non-empty level. Most
// slice ends only rotate the run queue, and nothing outside the machine can
// tell them apart, so the scheduler applies those in-process (Advance) and
// only two kinds of event reach the simulator:
//
//  * a slice that ends a request fires an event at its end. When the work
//    runs out, that event is scheduled when the slice starts, as the
//    reference model schedules it; when the request is cancelled while the
//    slice runs, it is scheduled at the cancel;
//  * one wake-up at most, armed for the next quantum boundary at which a
//    request's last slice starts (NextWakeTime works it out in closed form),
//    so that the slice's event is scheduled at the simulated time it starts.
//
// Every other boundary is applied by Advance, which runs inside the
// scheduler's own events and before every call that reads or changes its
// state. Advance applies exactly the boundaries whose reference event would
// have fired before the caller, in the reference order: by end time, then
// by the order the slices started (the reference event's seq). The tie rule
// for a boundary at exactly Now(): it precedes a foreign event iff its slice
// started before that event was scheduled (Simulator::firing_scheduled_at);
// it precedes a now-lane event always. The scheduler's own events carry
// their exact place in the start order.
//
// Two cases are not exact. Both need a foreign event at the very instant a
// slice ends that fires before the scheduler has applied that boundary:
//
//  * A double tie: the event was scheduled at the very instant the slice
//    started. A read in it takes the boundary to come first; the reference
//    order could go either way.
//  * A cancel of a running request: the event was scheduled after the
//    slice started and before the cancel, so it fires before the
//    completion event. A read in it still completes the request first.
//
// In both, what the event posts or schedules before its first call into
// the scheduler, or without one, can come ahead of the resume and of the
// next slice's event where the reference model puts it after them.
// DESIGN §12 gives how often each happens on perfbench and the records.

#ifndef QUICKSAND_CLUSTER_CPU_H_
#define QUICKSAND_CLUSTER_CPU_H_

#include <array>
#include <coroutine>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "quicksand/common/stats.h"
#include "quicksand/common/time.h"
#include "quicksand/sim/simulator.h"
#include "quicksand/sim/task.h"

namespace quicksand {

// Priority levels; lower value is served first.
inline constexpr int kPriorityHigh = 0;    // latency-critical antagonists
inline constexpr int kPriorityNormal = 1;  // proclet work
inline constexpr int kPriorityLow = 2;     // background/best-effort

class CpuScheduler;

// Cancels a set of outstanding CPU requests: used by proclet migration to
// "unwedge" computation that is starved waiting for a core, so the work can
// move to another machine instead of waiting out the starvation (Nu migrates
// such threads with the proclet; we cancel-and-requeue their remaining work).
class CpuCancelToken {
 public:
  CpuCancelToken() = default;

  CpuCancelToken(const CpuCancelToken&) = delete;
  CpuCancelToken& operator=(const CpuCancelToken&) = delete;

  bool cancelled() const { return cancelled_; }
  // Wakes every registered request; each resumes with its remaining work.
  void Cancel();
  // Re-arms the token for use after a migration completes.
  void Reset() { cancelled_ = false; }

 private:
  friend class CpuScheduler;
  friend struct CpuRunAwaiter;

  bool cancelled_ = false;
  CpuScheduler* sched_ = nullptr;
  std::vector<void*> active_;  // Request* (opaque outside CpuScheduler)
};

class CpuScheduler {
 public:
  CpuScheduler(Simulator& sim, int num_cores, Duration quantum = Duration::Micros(20));
  ~CpuScheduler();

  CpuScheduler(const CpuScheduler&) = delete;
  CpuScheduler& operator=(const CpuScheduler&) = delete;

  // Consumes `work` of core time at `priority` (kPriorityHigh..kPriorityLow);
  // suspends until fully serviced. Zero or negative work returns immediately.
  Task<> Run(Duration work, int priority = kPriorityNormal);

  // Like Run, but abandons the request when `token` is cancelled; returns
  // the unserviced remainder (Zero when the work completed).
  Task<Duration> RunCancellable(Duration work, int priority, CpuCancelToken& token);

  // Fail-stop: the cores halt. Every queued or running request resumes
  // immediately as cancelled (with its full remainder), and later Run /
  // RunCancellable calls return without consuming simulated time. Parked
  // work never hangs on a dead machine — the caller observes the machine's
  // death through the runtime, not through a stuck core.
  void Halt();
  bool halted() const { return halted_; }

  int num_cores() const { return num_cores_; }
  Duration quantum() const { return quantum_; }

  // --- Scheduling signals ---------------------------------------------------

  // EWMA of enqueue -> first-service delay at the given priority. Rises
  // sharply when higher-priority work floods the cores.
  Duration QueueingDelay(int priority) const;

  // Instantaneous starvation signal: how long the oldest queued request at
  // this priority has been waiting for a core (Zero when none is queued).
  // Unlike the EWMA, this fires while requests are still stuck.
  Duration OldestWaitingAge(int priority) const;

  // Number of runnable (queued or running) requests with a strictly better
  // (numerically lower) priority. Starvation of `priority` only indicates
  // *pressure* — rather than self-saturation — when this is non-zero.
  int64_t RunnableAbove(int priority) const;

  // Requests currently queued or running.
  int64_t runnable_count() const;
  int64_t queued_count(int priority) const;

  // (queued + running) / cores — an instantaneous load factor.
  double LoadFactor() const;

  // Cumulative busy core-time (sum over cores). Callers compute windowed
  // utilization from deltas of this value.
  Duration TotalBusy() const;

  // Windowed utilization in [0, 1]: fraction of core-time busy since the
  // given earlier reading.
  double UtilizationSince(SimTime earlier, Duration busy_at_earlier) const;

 private:
  friend class CpuCancelToken;
  friend struct CpuRunAwaiter;

  static constexpr int kLevels = kPriorityLow - kPriorityHigh + 1;

  struct Request {
    Duration remaining;  // the unserviced work, once the request resumes
    int priority;
    SimTime enqueued;
    bool cancelled = false;
    CpuCancelToken* token = nullptr;
    std::coroutine_handle<> waiter;
  };

  // Queued and running requests carry their unserviced work beside them, so
  // rotating the queue and planning the wake-up never touch a request.
  // `rounds` counts the full quanta the work takes before its last slice.
  static constexpr int64_t kServiced = -1;
  struct Queued {
    Request* request;
    int64_t remaining_ns;
    int64_t rounds;
    int64_t enqueued_ns;  // kServiced once the request has had a slice
  };

  // One level's FIFO: a vector read from `head_` and compacted once the
  // consumed prefix reaches half of it, so a rotating queue keeps reusing
  // the same memory.
  class RunQueue {
   public:
    bool empty() const { return head_ == items_.size(); }
    size_t size() const { return items_.size() - head_; }
    const Queued* begin() const { return items_.data() + head_; }
    const Queued* end() const { return items_.data() + items_.size(); }
    const Queued& front() const { return items_[head_]; }
    const Queued& operator[](size_t i) const { return items_[head_ + i]; }
    void push_back(Request* request, int64_t remaining_ns, int64_t rounds, int64_t enqueued_ns) {
      items_.emplace_back(request, remaining_ns, rounds, enqueued_ns);
    }
    void pop_front() {
      if (++head_ * 2 >= items_.size()) {
        items_.erase(items_.begin(), items_.begin() + static_cast<ptrdiff_t>(head_));
        head_ = 0;
      }
    }
    void erase(const Queued* pos) { items_.erase(items_.begin() + (pos - items_.data())); }
    void clear() {
      items_.clear();
      head_ = 0;
    }

   private:
    std::vector<Queued> items_;
    size_t head_ = 0;
  };

  // A slice in progress. `order` numbers slice starts in the order they
  // happen, so (end, order) is the reference event's (time, seq) order.
  struct Slice {
    int64_t end_ns;
    uint64_t order;
    int64_t start_ns;
    int64_t left_ns;  // the request's work left after this slice
    int64_t rounds;   // full quanta in left_ns before the last slice
    Request* request;
    uint32_t core;
    uint8_t level;
    bool ends_request;  // the request finishes or was cancelled; an event fires
  };

  // Where a caller stands in the reference event order. The scheduler's own
  // events know their exact start order; any other event gives the time it
  // was scheduled at (kForeign).
  static constexpr uint64_t kForeign = UINT64_MAX;
  struct Position {
    int64_t time_ns;
    uint64_t order;
    int64_t scheduled_ns;
  };

  void Enqueue(Request* request);
  // Starts queued requests on idle cores.
  void Dispatch(int64_t now_ns);
  // Starts the head of `level`'s queue on `core`.
  void StartHead(uint32_t core, int level, int64_t now_ns);
  void StartSlice(uint32_t core, int level, int64_t now_ns, Request* request,
                  int64_t remaining_ns, int64_t rounds);
  // Arms the event at the end of a slice that ends its request.
  void ScheduleSliceEvent(const Slice& slice);
  void CancelToken(CpuCancelToken& token);
  void CancelRequest(Request* request);
  void Deregister(Request* request);

  // The position of the event firing now.
  Position Here() const;
  static bool Precedes(const Slice& slice, const Position& pos);
  // Applies every boundary before `pos`.
  void Advance(const Position& pos);
  // Advance to Here() and re-arm the wake-up if the runnable set changed,
  // for a caller that only reads.
  void Sync() const;
  void EndSlice(const Slice& slice);
  void FinishRequest(const Slice& slice);
  void OnSliceEvent(int64_t end_ns, uint64_t order);
  void OnWake(uint64_t generation, uint64_t order);
  // Plans the wake-up and arms it, unless one is armed no later.
  void ArmWake();
  // The best (lowest) level with a queued request; kLevels when none is.
  int BestQueuedLevel() const;
  // The next boundary at which a request's last slice starts or a core
  // passes to another priority level; INT64_MAX when a slice event, which
  // re-plans, fires no later, or when none comes.
  int64_t NextWakeTime();

  // Slices in progress, in reference order: a ring over a power-of-two
  // buffer with room for more slices than there are cores.
  Slice& SliceAt(size_t i) { return slices_[(slices_head_ + i) & slices_mask_]; }
  const Slice& SliceAt(size_t i) const { return slices_[(slices_head_ + i) & slices_mask_]; }
  // Makes room for a slice ending at `end_ns` in reference order and
  // returns it with only end_ns set.
  Slice& InsertSlice(int64_t end_ns);
  void PopFrontSlice();

  Simulator& sim_;
  Duration quantum_;
  int num_cores_;
  std::vector<uint32_t> idle_cores_;
  std::array<RunQueue, kLevels> ready_;  // FIFO per level
  std::array<int64_t, kLevels> runnable_{};          // queued or running
  int64_t runnable_count_ = 0;
  bool halted_ = false;
  Duration total_busy_ = Duration::Zero();
  std::array<Ewma, kLevels> queueing_delay_;

  std::vector<Slice> slices_;
  size_t slices_head_ = 0;
  size_t slices_count_ = 0;
  size_t slices_mask_ = 0;
  uint64_t next_order_ = 0;

  bool replan_ = false;  // the runnable set changed since the wake-up was armed
  bool wake_armed_ = false;
  int64_t wake_ns_ = 0;
  uint64_t wake_generation_ = 0;  // a wake-up that finds another value is stale
  std::vector<const Slice*> cycle_;  // NextWakeTime's working list
};

}  // namespace quicksand

#endif  // QUICKSAND_CLUSTER_CPU_H_
