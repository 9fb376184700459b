// Property: CpuScheduler, which applies quantum boundaries in-process and
// gives events only to slices that end a request, behaves exactly like the
// per-quantum event model: ReferenceCpu below, the algorithm that gave
// every slice an event of its own, kept verbatim as the oracle.
//
// Seeded random schedules run `Run` and `RunCancellable` at all three
// priorities on 1-8 cores, with quanta of 1-500 us and work from one grid
// step to far above a quantum, plus token cancels of queued and running
// requests, `Halt`, every signal read, and marks: events that only post a
// log entry and never call the scheduler. Every time is a multiple of a
// grid step g that also divides the quantum, so quantum boundaries fall on
// the grid and an operation placed on the grid often lands on one exactly.
// Each operation is scheduled from a planning event half a step off the
// grid, between one step and a few quanta ahead, so at a tie it sits before
// or after the boundary depending on whether the slice started after or
// before the plan. A read sometimes re-posts itself, a now-lane event at the
// same time. No event on the grid is scheduled from an instant a slice
// starts at, so no tie is a double tie (cluster/cpu.h).
//
// Both models run the same schedule; the completion times, the resume
// order, every returned remainder and every read value must match to the
// nanosecond. The one known gap (cluster/cpu.h): a request cancelled while
// running completes from an event scheduled at the cancel, so a mark at
// that slice's end, planned after the slice started and before the cancel,
// posts ahead of the resume. The reference model records each such cancel,
// and a schedule may diverge only from the instant of a mark that ties with
// one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "quicksand/cluster/cpu.h"
#include "quicksand/common/random.h"
#include "quicksand/common/stats.h"
#include "quicksand/sim/simulator.h"

namespace quicksand {
namespace {

constexpr int kSeeds = 400;
constexpr int kTokens = 3;

// --- The per-quantum event model ------------------------------------------

class ReferenceCpu;

class ReferenceToken {
 public:
  bool cancelled() const { return cancelled_; }
  void Cancel();
  void Reset() { cancelled_ = false; }

 private:
  friend class ReferenceCpu;
  bool cancelled_ = false;
  ReferenceCpu* sched_ = nullptr;
  std::vector<void*> active_;
};

class ReferenceCpu {
 public:
  ReferenceCpu(Simulator& sim, int num_cores, Duration quantum)
      : sim_(sim), quantum_(quantum) {
    cores_.resize(static_cast<size_t>(num_cores));
    for (size_t i = 0; i < cores_.size(); ++i) {
      idle_cores_.push_back(i);
    }
  }

  Task<> Run(Duration work, int priority) {
    if (halted_) {
      co_return;
    }
    co_await Awaiter{*this, work, priority, nullptr, {}};
  }

  Task<Duration> RunCancellable(Duration work, int priority, ReferenceToken& token) {
    if (token.cancelled() || halted_) {
      co_return work;
    }
    const Duration remaining = co_await Awaiter{*this, work, priority, &token, {}};
    co_return remaining;
  }

  void Halt() {
    if (halted_) {
      return;
    }
    halted_ = true;
    for (auto& [priority, queue] : ready_) {
      for (Request* request : queue) {
        request->cancelled = true;
        --runnable_count_;
        Deregister(request);
        const std::coroutine_handle<> waiter = request->waiter;
        sim_.Post([waiter] { waiter.resume(); });
      }
      queue.clear();
    }
    for (size_t i = 0; i < cores_.size(); ++i) {
      Request* request = cores_[i];
      if (request == nullptr) {
        continue;
      }
      cores_[i] = nullptr;
      request->running = false;
      request->cancelled = true;
      --runnable_count_;
      Deregister(request);
      const std::coroutine_handle<> waiter = request->waiter;
      sim_.Post([waiter] { waiter.resume(); });
      idle_cores_.push_back(i);
    }
  }

  Duration QueueingDelay(int priority) const {
    auto it = queueing_delay_.find(priority);
    return it == queueing_delay_.end()
               ? Duration::Zero()
               : Duration::Nanos(static_cast<int64_t>(it->second.value()));
  }
  Duration OldestWaitingAge(int priority) const {
    auto it = ready_.find(priority);
    if (it == ready_.end() || it->second.empty()) {
      return Duration::Zero();
    }
    return sim_.Now() - it->second.front()->enqueued;
  }
  int64_t RunnableAbove(int priority) const {
    int64_t count = 0;
    for (const auto& [level, queue] : ready_) {
      if (level < priority) {
        count += static_cast<int64_t>(queue.size());
      }
    }
    for (const Request* request : cores_) {
      if (request != nullptr && request->priority < priority) {
        ++count;
      }
    }
    return count;
  }
  int64_t runnable_count() const { return runnable_count_; }
  int64_t queued_count(int priority) const {
    auto it = ready_.find(priority);
    return it == ready_.end() ? 0 : static_cast<int64_t>(it->second.size());
  }
  double LoadFactor() const {
    return static_cast<double>(runnable_count_) / static_cast<double>(cores_.size());
  }
  Duration TotalBusy() const { return total_busy_; }
  // Instrumentation, not part of the algorithm: each cancel of a running
  // request whose slice was not already its last, with that slice.
  struct RunningCancel {
    int64_t slice_start_ns;
    int64_t slice_end_ns;
    int64_t cancel_ns;
  };
  const std::vector<RunningCancel>& running_cancels() const { return running_cancels_; }
  double UtilizationSince(SimTime earlier, Duration busy_at_earlier) const {
    const Duration wall = sim_.Now() - earlier;
    if (wall <= Duration::Zero()) {
      return 0.0;
    }
    return (total_busy_ - busy_at_earlier) / (wall * static_cast<int64_t>(cores_.size()));
  }

 private:
  friend class ReferenceToken;

  struct Request {
    Duration remaining;
    int priority;
    SimTime enqueued;
    bool serviced_once = false;
    bool cancelled = false;
    bool running = false;
    SimTime slice_start;  // instrumentation
    SimTime slice_end;    // instrumentation
    ReferenceToken* token = nullptr;
    std::coroutine_handle<> waiter;
  };

  struct Awaiter {
    ReferenceCpu& sched;
    Duration work;
    int priority;
    ReferenceToken* token;
    Request request;

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
        token->sched_ = &sched;
        token->active_.push_back(&request);
      }
      sched.ready_[priority].push_back(&request);
      ++sched.runnable_count_;
      sched.Dispatch();
    }
    Duration await_resume() const noexcept {
      if (!request.cancelled || request.remaining <= Duration::Zero()) {
        return Duration::Zero();
      }
      return request.remaining;
    }
  };

  void Dispatch() {
    if (halted_) {
      return;
    }
    while (!idle_cores_.empty()) {
      Request* request = nullptr;
      for (auto& [priority, queue] : ready_) {
        if (!queue.empty()) {
          request = queue.front();
          queue.pop_front();
          break;
        }
      }
      if (request == nullptr) {
        return;
      }
      if (!request->serviced_once) {
        request->serviced_once = true;
        queueing_delay_[request->priority].Add(
            static_cast<double>((sim_.Now() - request->enqueued).nanos()));
      }
      const size_t core = idle_cores_.back();
      idle_cores_.pop_back();
      request->running = true;
      cores_[core] = request;
      const Duration slice = std::min(quantum_, request->remaining);
      request->slice_start = sim_.Now();
      request->slice_end = sim_.Now() + slice;
      sim_.Schedule(slice, [this, core, slice] { OnSliceEnd(core, slice); });
    }
  }

  void OnSliceEnd(size_t core, Duration slice) {
    if (halted_) {
      return;
    }
    Request* request = cores_[core];
    cores_[core] = nullptr;
    request->running = false;
    idle_cores_.push_back(core);
    total_busy_ += slice;
    request->remaining -= slice;
    if (request->remaining <= Duration::Zero() || request->cancelled) {
      --runnable_count_;
      Deregister(request);
      const std::coroutine_handle<> waiter = request->waiter;
      sim_.Post([waiter] { waiter.resume(); });
    } else {
      ready_[request->priority].push_back(request);
    }
    Dispatch();
  }

  void CancelRequest(Request* request) {
    request->cancelled = true;
    if (request->running) {
      if (request->remaining > request->slice_end - request->slice_start) {
        running_cancels_.push_back(RunningCancel{
            request->slice_start.nanos(), request->slice_end.nanos(), sim_.Now().nanos()});
      }
      return;
    }
    auto& queue = ready_[request->priority];
    queue.erase(std::find(queue.begin(), queue.end(), request));
    --runnable_count_;
    request->token = nullptr;
    const std::coroutine_handle<> waiter = request->waiter;
    sim_.Post([waiter] { waiter.resume(); });
  }

  void Deregister(Request* request) {
    ReferenceToken* token = request->token;
    if (token == nullptr) {
      return;
    }
    request->token = nullptr;
    auto pos = std::find(token->active_.begin(), token->active_.end(), request);
    if (pos != token->active_.end()) {
      token->active_.erase(pos);
    }
  }

  Simulator& sim_;
  Duration quantum_;
  std::vector<Request*> cores_;
  std::vector<size_t> idle_cores_;
  std::map<int, std::deque<Request*>> ready_;
  int64_t runnable_count_ = 0;
  bool halted_ = false;
  Duration total_busy_ = Duration::Zero();
  std::map<int, Ewma> queueing_delay_;
  std::vector<RunningCancel> running_cancels_;
};

void ReferenceToken::Cancel() {
  cancelled_ = true;
  if (sched_ == nullptr) {
    return;
  }
  std::vector<void*> pending;
  pending.swap(active_);
  for (void* opaque : pending) {
    sched_->CancelRequest(static_cast<ReferenceCpu::Request*>(opaque));
  }
  sched_ = nullptr;
}

// --- Schedules ------------------------------------------------------------

struct Op {
  int64_t plan_ns;  // half a grid step off the grid
  int64_t at_ns;    // on the grid, except for some reads
};

struct Job {
  Op op;
  int64_t work_ns;
  int64_t second_work_ns;  // a second request right after the first; 0 for none
  int priority;
  int token;  // -1: Run; otherwise RunCancellable with tokens[token]
};

struct Cancel {
  Op op;
  int token;
};

struct Read {
  Op op;
  bool repost;  // read again from a now-lane event at the same time
};

struct Schedule {
  int cores = 1;
  int64_t quantum_ns = 0;
  std::vector<Job> jobs;
  std::vector<Cancel> cancels;
  std::vector<Read> reads;
  std::vector<Op> marks;
  bool halt = false;
  Op halt_op{};
};

Schedule MakeSchedule(uint64_t seed) {
  Rng rng(seed);
  Schedule s;
  s.cores = static_cast<int>(rng.NextInRange(1, 8));
  static constexpr int64_t kGrids[] = {1000, 10'000, 100'000};
  const int64_t grid = kGrids[rng.NextBounded(3)];
  const int64_t steps = rng.NextInRange(1, 5);  // quantum in grid steps
  s.quantum_ns = grid * steps;
  const int64_t horizon = rng.NextInRange(10, 40) * steps;  // in grid steps
  // An operation on grid step `at`, planned between one step and a few
  // quanta ahead.
  const auto op_at = [&](int64_t at) {
    const int64_t ahead = std::min(at, rng.NextInRange(1, 2 * steps + 2));
    return Op{(at - ahead) * grid + grid / 2, at * grid};
  };
  const int jobs = static_cast<int>(rng.NextInRange(2, 12 * s.cores));
  for (int i = 0; i < jobs; ++i) {
    Job job;
    job.op = op_at(rng.NextInRange(1, horizon));
    const auto work = [&] {
      const int64_t units = rng.NextBounded(10) < 7 ? rng.NextInRange(1, 3 * steps)
                                                    : rng.NextInRange(3 * steps, 40 * steps);
      return units * grid;
    };
    job.work_ns = work();
    job.second_work_ns = rng.NextBounded(5) == 0 ? work() : 0;
    const uint64_t level = rng.NextBounded(5);
    job.priority = level == 0 ? kPriorityHigh : level == 4 ? kPriorityLow : kPriorityNormal;
    job.token = rng.NextBounded(2) == 0 ? -1 : static_cast<int>(rng.NextBounded(kTokens));
    s.jobs.push_back(job);
  }
  const int cancels = static_cast<int>(rng.NextInRange(0, 8));
  for (int i = 0; i < cancels; ++i) {
    s.cancels.push_back(
        Cancel{op_at(rng.NextInRange(1, 2 * horizon)), static_cast<int>(rng.NextBounded(kTokens))});
  }
  const int reads = static_cast<int>(rng.NextInRange(20, 120));
  for (int i = 0; i < reads; ++i) {
    Read read{op_at(rng.NextInRange(1, 3 * horizon)), rng.NextBounded(4) == 0};
    if (rng.NextBounded(5) == 0) {
      read.op.at_ns += grid / 4;  // off the grid: no tie
    }
    s.reads.push_back(read);
  }
  s.halt = rng.NextBounded(4) == 0;
  s.halt_op = op_at(rng.NextInRange(horizon / 2, 2 * horizon));
  const int marks = static_cast<int>(rng.NextInRange(0, 40));
  for (int i = 0; i < marks; ++i) {
    s.marks.push_back(op_at(rng.NextInRange(1, 2 * horizon)));
  }
  return s;
}

// --- One run ----------------------------------------------------------------

struct Log {
  std::vector<std::string> lines;
  std::vector<int64_t> times;  // when each line was written
  std::vector<ReferenceCpu::RunningCancel> running_cancels;  // the reference's
};

template <typename... Args>
void Append(Log& log, const Simulator& sim, const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  log.lines.emplace_back(buf);
  log.times.push_back(sim.Now().nanos());
}

// Every signal, read through a const reference as the library's callers do.
template <typename Cpu>
void ReadAll(const Simulator& sim, const Cpu& cpu, SimTime& mark_time, Duration& mark_busy,
             Log& log) {
  Append(log, sim, "read t=%" PRId64, sim.Now().nanos());
  for (int p = kPriorityHigh; p <= kPriorityLow; ++p) {
    Append(log, sim, "  p%d delay=%" PRId64 " oldest=%" PRId64 " queued=%" PRId64, p,
           cpu.QueueingDelay(p).nanos(), cpu.OldestWaitingAge(p).nanos(),
           cpu.queued_count(p));
  }
  for (int p = kPriorityHigh; p <= kPriorityLow + 1; ++p) {
    Append(log, sim, "  above%d=%" PRId64, p, cpu.RunnableAbove(p));
  }
  Append(log, sim, "  runnable=%" PRId64 " load=%.17g busy=%" PRId64 " util=%.17g",
         cpu.runnable_count(), cpu.LoadFactor(), cpu.TotalBusy().nanos(),
         cpu.UtilizationSince(mark_time, mark_busy));
  mark_time = sim.Now();
  mark_busy = cpu.TotalBusy();
}

template <typename Cpu, typename Token>
Task<> RunJob(Simulator& sim, Cpu& cpu, Token* token, Job job, int id, Log& log) {
  co_await sim.SleepUntil(SimTime::FromNanos(job.op.plan_ns));
  co_await sim.SleepUntil(SimTime::FromNanos(job.op.at_ns));
  const int64_t works[] = {job.work_ns, job.second_work_ns};
  for (const int64_t work : works) {
    if (work == 0) {
      break;
    }
    Duration left = Duration::Zero();
    if (token != nullptr) {
      left = co_await cpu.RunCancellable(Duration::Nanos(work), job.priority, *token);
    } else {
      co_await cpu.Run(Duration::Nanos(work), job.priority);
    }
    Append(log, sim, "job %d done t=%" PRId64 " left=%" PRId64, id, sim.Now().nanos(), left.nanos());
  }
}

template <typename Cpu, typename Token>
Log Drive(const Schedule& s) {
  Simulator sim;
  Cpu cpu(sim, s.cores, Duration::Nanos(s.quantum_ns));
  std::vector<std::unique_ptr<Token>> tokens;
  for (int i = 0; i < kTokens; ++i) {
    tokens.push_back(std::make_unique<Token>());
  }
  Log log;
  SimTime mark_time = SimTime::Zero();
  Duration mark_busy = Duration::Zero();
  // Runs `fn` at op.at_ns, scheduled from an event at op.plan_ns.
  const auto at = [&sim](const Op& op, auto fn) {
    sim.ScheduleAt(SimTime::FromNanos(op.plan_ns), [&sim, op, fn] {
      sim.ScheduleAt(SimTime::FromNanos(op.at_ns), fn);
    });
  };
  for (size_t i = 0; i < s.jobs.size(); ++i) {
    const Job& job = s.jobs[i];
    Token* token = job.token < 0 ? nullptr : tokens[static_cast<size_t>(job.token)].get();
    sim.Spawn(RunJob(sim, cpu, token, job, static_cast<int>(i), log));
  }
  for (const Cancel& cancel : s.cancels) {
    Token* token = tokens[static_cast<size_t>(cancel.token)].get();
    at(cancel.op, [&sim, &log, token, id = cancel.token] {
      Append(log, sim, "cancel %d t=%" PRId64, id, sim.Now().nanos());
      token->Cancel();
      token->Reset();
    });
  }
  for (const Read& read : s.reads) {
    at(read.op, [&, repost = read.repost] {
      ReadAll(sim, cpu, mark_time, mark_busy, log);
      if (repost) {
        sim.Post([&] { ReadAll(sim, cpu, mark_time, mark_busy, log); });
      }
    });
  }
  for (const Op& mark : s.marks) {
    at(mark, [&sim, &log] {
      sim.Post([&sim, &log] { Append(log, sim, "mark t=%" PRId64, sim.Now().nanos()); });
    });
  }
  if (s.halt) {
    at(s.halt_op, [&] {
      Append(log, sim, "halt t=%" PRId64, sim.Now().nanos());
      cpu.Halt();
    });
  }
  // Read once more at a fixed time after every request is done. An idle
  // simulator's clock is not compared: it stops at whichever stale event
  // fires last (a superseded wake-up here, a halted core's slice end in the
  // reference).
  int64_t last_ns = 0;
  for (const Job& job : s.jobs) {
    last_ns += job.op.at_ns + job.work_ns + job.second_work_ns;
  }
  for (const Read& read : s.reads) {
    last_ns = std::max(last_ns, read.op.at_ns);
  }
  sim.RunUntil(SimTime::FromNanos(last_ns + 1));
  ReadAll(sim, cpu, mark_time, mark_busy, log);
  sim.RunUntilIdle();
  Append(log, sim, "runnable at idle=%" PRId64, cpu.runnable_count());
  if constexpr (std::is_same_v<Cpu, ReferenceCpu>) {
    log.running_cancels = cpu.running_cancels();
  }
  return log;
}

// The first instant at which a mark ties with the end of a slice whose
// request was cancelled while it ran, having been planned after the slice
// started and before the cancel; INT64_MAX when none does.
int64_t FirstCancelTie(const Schedule& s, const Log& reference) {
  int64_t first = INT64_MAX;
  for (const ReferenceCpu::RunningCancel& cancel : reference.running_cancels) {
    for (const Op& mark : s.marks) {
      if (mark.at_ns == cancel.slice_end_ns && mark.plan_ns > cancel.slice_start_ns &&
          mark.plan_ns < cancel.cancel_ns) {
        first = std::min(first, mark.at_ns);
      }
    }
  }
  return first;
}

TEST(CpuSchedulerModelTest, RandomSchedulesMatchThePerQuantumEventModel) {
  int64_t entries = 0;
  int64_t marks_at_completions = 0;  // marks next to a resume at the same instant
  int cancel_ties = 0;               // schedules with the known gap
  int diverged_at_tie = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const Schedule s = MakeSchedule(static_cast<uint64_t>(seed));
    const Log want = Drive<ReferenceCpu, ReferenceToken>(s);
    const Log got = Drive<CpuScheduler, CpuCancelToken>(s);
    const size_t n = std::min(want.lines.size(), got.lines.size());
    size_t first = n;
    for (size_t i = 0; i < n; ++i) {
      if (want.lines[i] != got.lines[i]) {
        first = i;
        break;
      }
    }
    const int64_t tie = FirstCancelTie(s, want);
    if (tie != INT64_MAX) {
      ++cancel_ties;
    }
    if (first == n && want.lines.size() == got.lines.size()) {
      entries += static_cast<int64_t>(want.lines.size());
      const auto resume_at = [&want](size_t i, int64_t t) {
        return i < want.lines.size() && want.times[i] == t && want.lines[i].rfind("job", 0) == 0;
      };
      for (size_t i = 0; i < want.lines.size(); ++i) {
        if (want.lines[i].rfind("mark", 0) == 0 &&
            (resume_at(i - 1, want.times[i]) || resume_at(i + 1, want.times[i]))) {
          ++marks_at_completions;
        }
      }
      continue;
    }
    // Both runs agree on every line written before the divergence, so its
    // time is the earlier of the two diverging lines.
    const int64_t at = std::min(first < want.lines.size() ? want.times[first] : INT64_MAX,
                                first < got.lines.size() ? got.times[first] : INT64_MAX);
    if (at >= tie) {
      entries += static_cast<int64_t>(first);
      ++diverged_at_tie;
      continue;
    }
    std::string context;
    for (size_t i = first < 8 ? 0 : first - 8; i < first; ++i) {
      context += "\n    " + want.lines[i];
    }
    ADD_FAILURE() << "seed " << seed << " (" << s.cores << " cores, quantum " << s.quantum_ns
                  << " ns) diverges at log entry " << first << ", after:" << context
                  << "\n  reference: " << (first < want.lines.size() ? want.lines[first] : "<end>")
                  << "\n  scheduler: " << (first < got.lines.size() ? got.lines[first] : "<end>");
    return;
  }
  std::printf("%d of %d schedules tie a mark with a running request's cancel, %d diverge "
              "there; %" PRId64 " marks posted next to a resume at the same instant\n",
              cancel_ties, kSeeds, diverged_at_tie, marks_at_completions);
  // The schedules do reach the cases they are meant to.
  EXPECT_GT(entries, 100'000);
  EXPECT_GT(marks_at_completions, 100);
}

}  // namespace
}  // namespace quicksand
