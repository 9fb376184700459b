// Rpc: request/response round trips over the fabric, with latency stats.
//
// Because the simulator shares one address space, an "RPC" does not move real
// bytes — it charges wire time for the request, runs the server-side closure
// (which models its own CPU cost against the destination machine), then
// charges wire time for the response. Proclet invocation does not go
// through Rpc: Runtime::Invoke is the one hop with admission, deadline
// refusals and retries, and shares only kHeaderBytes. Nothing in src/,
// bench/ or examples/ constructs an Rpc; it is the bare round trip that
// perfbench's rpc ladder rung measures, one layer above the fabric.
//
// Under network faults (partitions, packet loss) a leg of the round trip can
// vanish with both endpoints alive. The caller cannot observe the loss
// directly — it waits out its timeout and gets DeadlineExceeded, same as a
// slow server.

#ifndef QUICKSAND_NET_RPC_H_
#define QUICKSAND_NET_RPC_H_

#include <cstdint>
#include <functional>

#include "quicksand/common/stats.h"
#include "quicksand/common/status.h"
#include "quicksand/net/fabric.h"
#include "quicksand/sim/task.h"

namespace quicksand {

class Rpc {
 public:
  // Fixed framing cost added to every request and response payload.
  static constexpr int64_t kHeaderBytes = 64;

  Rpc(Simulator& sim, Fabric& fabric) : sim_(sim), fabric_(fabric) {}

  Rpc(const Rpc&) = delete;
  Rpc& operator=(const Rpc&) = delete;

  // Round trip src -> dst -> src. `server` runs logically at dst and returns
  // the response payload size in bytes. If the round trip exceeds `timeout`
  // the result is DeadlineExceeded (the server work still happened; only the
  // response is considered lost — the usual at-least-once caveat). If either
  // endpoint has failed, or fails mid-flight, the result is Unavailable. A
  // leg lost to a partition or packet drop surfaces as DeadlineExceeded at
  // the deadline — the caller cannot tell loss from slowness, so a finite
  // timeout is required on faultable links (CHECK-enforced at the drop).
  Task<Status> RoundTrip(MachineId src, MachineId dst, int64_t request_bytes,
                         std::function<Task<int64_t>()> server,
                         Duration timeout = Duration::Max());

  const LatencyHistogram& latency() const { return latency_; }
  int64_t calls() const { return calls_; }
  int64_t timeouts() const { return timeouts_; }
  int64_t aborted() const { return aborted_; }
  // Round trips that lost a leg to a partition/drop (a subset of timeouts).
  int64_t lost() const { return lost_; }

  Fabric& fabric() { return fabric_; }

 private:
  // A leg of the round trip was dropped: the caller waits out the deadline
  // and reports DeadlineExceeded, exactly like a timeout it cannot tell
  // apart from.
  Task<Status> LoseRoundTrip(SimTime start, Duration timeout);

  Simulator& sim_;
  Fabric& fabric_;
  LatencyHistogram latency_;
  int64_t calls_ = 0;
  int64_t timeouts_ = 0;
  int64_t aborted_ = 0;
  int64_t lost_ = 0;
};

}  // namespace quicksand

#endif  // QUICKSAND_NET_RPC_H_
