// Rpc: request/response round trips over the fabric, with latency stats.
//
// Because the simulator shares one address space, an "RPC" does not move real
// bytes — it charges wire time for the request, runs the server-side closure
// (which models its own CPU cost against the destination machine), then
// charges wire time for the response. Proclet invocation does not go
// through Rpc: Runtime::Invoke runs its own hop and shares only kHeaderBytes.
// Nothing in src/, bench/ or examples/ constructs an Rpc; its users are its
// own tests, the trace-propagation test and perfbench's rpc ladder rung.
//
// Under network faults (partitions, packet loss) a leg of the round trip can
// vanish with both endpoints alive. The caller cannot observe the loss
// directly — it waits out its timeout and gets DeadlineExceeded, same as a
// slow server. Distinguishing "dead" from "merely silent" is the failure
// detector's job; attach one and RoundTripWithRetry will retry Unavailable
// from a *suspected* destination (it might just be partitioned) while
// keeping confirmed-dead terminal.

#ifndef QUICKSAND_NET_RPC_H_
#define QUICKSAND_NET_RPC_H_

#include <cstdint>
#include <functional>

#include "quicksand/common/random.h"
#include "quicksand/common/stats.h"
#include "quicksand/common/status.h"
#include "quicksand/net/fabric.h"
#include "quicksand/sim/task.h"
#include "quicksand/trace/trace.h"

namespace quicksand {

class FailureDetector;
class AdmissionController;
class RetryBudget;

// Retry schedule for RoundTripWithRetry. Attempt k (0-based) sleeps
// min(base_backoff * multiplier^k, max_backoff), scaled by a uniform jitter
// factor in [1 - jitter, 1 + jitter] drawn from the Rpc's deterministic
// Rng. The cap matters for long retry sequences: uncapped, the exponential
// schedule exceeds any plausible outage length within a dozen attempts and
// turns "retry until the partition heals" into "sleep past the heal".
struct RpcRetryPolicy {
  int max_attempts = 3;  // total attempts, including the first
  Duration base_backoff = Duration::Micros(50);
  double multiplier = 2.0;
  double jitter = 0.25;
  Duration max_backoff = Duration::Millis(10);  // cap on any single backoff
};

class Rpc {
 public:
  // Fixed framing cost added to every request and response payload.
  static constexpr int64_t kHeaderBytes = 64;

  Rpc(Simulator& sim, Fabric& fabric, uint64_t rng_seed = 0x9e3779b97f4a7c15ull)
      : sim_(sim), fabric_(fabric), rng_(rng_seed) {}

  Rpc(const Rpc&) = delete;
  Rpc& operator=(const Rpc&) = delete;

  // Lets RoundTripWithRetry consult machine health when deciding whether an
  // Unavailable destination is worth retrying. Optional.
  void AttachFailureDetector(const FailureDetector* detector) {
    detector_ = detector;
  }

  // Optional tracing: round trips then record as `rpc` / `rpc_attempt` spans
  // with per-leg send/recv/drop instants, stitched under the caller's
  // TraceContext. Null detaches; with no tracer the hooks are no-ops.
  void AttachTracer(Tracer* tracer) { tracer_ = tracer; }

  // Optional overload control. With an admission controller attached,
  // RoundTrip consults it after the request arrives at dst and sheds with
  // ResourceExhausted (paying only a header-sized rejection response)
  // instead of running the server closure. With a retry budget attached,
  // RoundTripWithRetry spends one token per retry and stops retrying —
  // whatever the policy allows — once the bucket is empty, so retries
  // amplify offered load by a bounded factor.
  void AttachAdmission(AdmissionController* admission) { admission_ = admission; }
  void AttachRetryBudget(RetryBudget* budget) { retry_budget_ = budget; }

  // Round trip src -> dst -> src. `server` runs logically at dst and returns
  // the response payload size in bytes. If the round trip exceeds `timeout`
  // the result is DeadlineExceeded (the server work still happened; only the
  // response is considered lost — the usual at-least-once caveat). If either
  // endpoint has failed, or fails mid-flight, the result is Unavailable. A
  // leg lost to a partition or packet drop surfaces as DeadlineExceeded at
  // the deadline — the caller cannot tell loss from slowness, so a finite
  // timeout is required on faultable links (CHECK-enforced at the drop).
  // `trace` (optional) is the caller's causal stamp: the attempt's span and
  // leg instants hang under it, so cross-machine spans stitch into one tree.
  //
  // Deadline propagation: when `trace.deadline` is set and has passed by the
  // time the request reaches dst, the server closure never runs — the call
  // returns DeadlineExceeded after a header-sized rejection response
  // (`deadline_expired` instant at dst). Work that cannot finish in time is
  // refused at admission rather than performed dead.
  Task<Status> RoundTrip(MachineId src, MachineId dst, int64_t request_bytes,
                         std::function<Task<int64_t>()> server,
                         Duration timeout = Duration::Max(),
                         TraceContext trace = TraceContext{});

  // RoundTrip with retry: exponential backoff on the sim clock with
  // deterministic jitter, up to policy.max_attempts attempts. Retryable:
  // DeadlineExceeded (slow or lossy network) and — when a failure detector
  // is attached — Unavailable from a destination that is merely *suspected*
  // (it may be partitioned, not dead). Unavailable from a confirmed-dead or
  // unmonitored destination is terminal: retrying a crashed machine cannot
  // succeed under fail-stop. The server closure may run multiple times
  // (at-least-once semantics, same caveat as RoundTrip).
  Task<Status> RoundTripWithRetry(MachineId src, MachineId dst, int64_t request_bytes,
                                  std::function<Task<int64_t>()> server,
                                  Duration timeout,
                                  RpcRetryPolicy policy = RpcRetryPolicy{},
                                  TraceContext trace = TraceContext{});

  const LatencyHistogram& latency() const { return latency_; }
  int64_t calls() const { return calls_; }
  int64_t timeouts() const { return timeouts_; }
  int64_t retries() const { return retries_; }
  int64_t aborted() const { return aborted_; }
  // Round trips that lost a leg to a partition/drop (a subset of timeouts).
  int64_t lost() const { return lost_; }
  // RoundTripWithRetry calls that ran out of attempts while the status was
  // still retryable — distinct from aborted (terminal endpoint death).
  int64_t retries_exhausted() const { return retries_exhausted_; }
  // Requests shed by the attached admission controller at the destination.
  int64_t shed() const { return shed_; }
  // Requests rejected at the destination because their deadline had passed.
  int64_t deadline_rejected() const { return deadline_rejected_; }
  // Retries RoundTripWithRetry wanted but the budget refused.
  int64_t budget_denied_retries() const { return budget_denied_retries_; }

  Fabric& fabric() { return fabric_; }

 private:
  // A leg of the round trip was dropped: the caller waits out the deadline
  // and reports DeadlineExceeded, exactly like a timeout it cannot tell
  // apart from.
  Task<Status> LoseRoundTrip(SimTime start, Duration timeout);

  Simulator& sim_;
  Fabric& fabric_;
  LatencyHistogram latency_;
  Rng rng_;
  const FailureDetector* detector_ = nullptr;
  Tracer* tracer_ = nullptr;
  AdmissionController* admission_ = nullptr;
  RetryBudget* retry_budget_ = nullptr;
  int64_t calls_ = 0;
  int64_t timeouts_ = 0;
  int64_t retries_ = 0;
  int64_t aborted_ = 0;
  int64_t lost_ = 0;
  int64_t retries_exhausted_ = 0;
  int64_t shed_ = 0;
  int64_t deadline_rejected_ = 0;
  int64_t budget_denied_retries_ = 0;
};

}  // namespace quicksand

#endif  // QUICKSAND_NET_RPC_H_
