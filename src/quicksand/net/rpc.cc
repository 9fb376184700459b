#include "quicksand/net/rpc.h"

#include "quicksand/common/check.h"

namespace quicksand {

Task<Status> Rpc::LoseRoundTrip(SimTime start, Duration timeout) {
  ++lost_;
  // An infinite timeout on a faultable link would hang the caller forever —
  // surface the misconfiguration instead of deadlocking the simulation.
  QS_CHECK_MSG(timeout != Duration::Max(),
               "an rpc leg was dropped by the network but the call has no "
               "timeout; faultable links require a finite rpc timeout");
  const SimTime deadline = start + timeout;
  if (sim_.Now() < deadline) {
    co_await sim_.SleepUntil(deadline);
  }
  ++timeouts_;
  co_return Status::DeadlineExceeded("rpc lost in the network");
}

Task<Status> Rpc::RoundTrip(MachineId src, MachineId dst, int64_t request_bytes,
                            std::function<Task<int64_t>()> server, Duration timeout) {
  const SimTime start = sim_.Now();
  ++calls_;
  const Delivery request =
      co_await fabric_.TransferDetailed(src, dst, request_bytes + kHeaderBytes);
  if (request == Delivery::kEndpointFailed) {
    ++aborted_;
    co_return Status::Unavailable("rpc request lost: endpoint failed");
  }
  if (request == Delivery::kDropped) {
    co_return co_await LoseRoundTrip(start, timeout);
  }
  const int64_t response_bytes = co_await server();
  const Delivery response =
      co_await fabric_.TransferDetailed(dst, src, response_bytes + kHeaderBytes);
  if (response == Delivery::kEndpointFailed) {
    ++aborted_;
    co_return Status::Unavailable("rpc response lost: endpoint failed");
  }
  if (response == Delivery::kDropped) {
    // The server work happened; only the ack vanished (at-least-once).
    co_return co_await LoseRoundTrip(start, timeout);
  }
  const Duration elapsed = sim_.Now() - start;
  latency_.Add(elapsed);
  if (elapsed > timeout) {
    ++timeouts_;
    co_return Status::DeadlineExceeded("rpc round trip exceeded timeout");
  }
  co_return Status::Ok();
}

}  // namespace quicksand
