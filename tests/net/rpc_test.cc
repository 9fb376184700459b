#include "quicksand/net/rpc.h"

#include <gtest/gtest.h>

#include "quicksand/cluster/cluster.h"
#include "quicksand/common/bytes.h"

namespace quicksand {
namespace {

struct RpcFixture {
  Simulator sim;
  Fabric fabric{sim, FabricConfig{}};
  Rpc rpc{sim, fabric};

  RpcFixture() {
    fabric.AddNic(0);
    fabric.AddNic(1);
  }
};

Task<int64_t> NoopServer() { co_return 0; }

TEST(RpcTest, RoundTripLatencyIsTwoOneWayTrips) {
  RpcFixture f;
  const Status s = f.sim.BlockOn(f.rpc.RoundTrip(0, 1, 0, NoopServer));
  EXPECT_TRUE(s.ok());
  // 2 x (1us overhead + 5us latency) plus header wire time (~10ns).
  EXPECT_GE(f.sim.Now() - SimTime::Zero(), 12_us);
  EXPECT_LE(f.sim.Now() - SimTime::Zero(), 13_us);
  EXPECT_EQ(f.rpc.calls(), 1);
  EXPECT_EQ(f.rpc.latency().count(), 1);
}

Task<int64_t> SlowServer(Simulator& sim) {
  co_await sim.Sleep(10_ms);
  co_return 128;
}

TEST(RpcTest, ServerTimeCountsTowardLatency) {
  RpcFixture f;
  const Status s =
      f.sim.BlockOn(f.rpc.RoundTrip(0, 1, 64, [&] { return SlowServer(f.sim); }));
  EXPECT_TRUE(s.ok());
  EXPECT_GE(f.sim.Now() - SimTime::Zero(), 10_ms);
  EXPECT_GE(f.rpc.latency().Max(), 10_ms);
}

TEST(RpcTest, TimeoutReportsDeadlineExceeded) {
  RpcFixture f;
  const Status s = f.sim.BlockOn(
      f.rpc.RoundTrip(0, 1, 64, [&] { return SlowServer(f.sim); }, 1_ms));
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(f.rpc.timeouts(), 1);
}

TEST(RpcTest, LargePayloadsPayWireTime) {
  RpcFixture f;
  const Status s = f.sim.BlockOn(f.rpc.RoundTrip(0, 1, 10_MiB, NoopServer));
  EXPECT_TRUE(s.ok());
  // 10 MiB at 12.5 GB/s is ~839us one way.
  EXPECT_GE(f.sim.Now() - SimTime::Zero(), 800_us);
}

TEST(RpcTest, LocalCallSkipsWire) {
  RpcFixture f;
  const Status s = f.sim.BlockOn(f.rpc.RoundTrip(0, 0, 1_MiB, NoopServer));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(f.sim.Now(), SimTime::Zero());
}

TEST(RpcTest, DeadEndpointIsUnavailable) {
  RpcFixture f;
  f.fabric.FailMachine(1);
  const Status s = f.sim.BlockOn(f.rpc.RoundTrip(0, 1, 64, NoopServer, 1_ms));
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(f.rpc.aborted(), 1);
  EXPECT_EQ(f.rpc.timeouts(), 0);
}

Task<int64_t> CountingServer(int* runs) {
  ++*runs;
  co_return 64;
}

TEST(RpcTest, DroppedRequestTimesOutAtTheDeadline) {
  RpcFixture f;
  f.fabric.PartitionOneWay(0, 1);
  int runs = 0;
  const SimTime start = f.sim.Now();
  const Status s = f.sim.BlockOn(
      f.rpc.RoundTrip(0, 1, 64, [&] { return CountingServer(&runs); }, 1_ms));
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  // The caller cannot tell loss from slowness: it waits out the timeout.
  EXPECT_EQ(f.sim.Now(), start + 1_ms);
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(f.rpc.lost(), 1);
  EXPECT_EQ(f.rpc.timeouts(), 1);
  EXPECT_EQ(f.rpc.aborted(), 0);
  EXPECT_EQ(f.rpc.latency().count(), 0);
}

TEST(RpcTest, DroppedResponseTimesOutAfterTheServerRan) {
  RpcFixture f;
  f.fabric.PartitionOneWay(1, 0);
  int runs = 0;
  const SimTime start = f.sim.Now();
  const Status s = f.sim.BlockOn(
      f.rpc.RoundTrip(0, 1, 64, [&] { return CountingServer(&runs); }, 1_ms));
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(f.sim.Now(), start + 1_ms);
  // The server work happened; only the response vanished (at-least-once).
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(f.rpc.lost(), 1);
  EXPECT_EQ(f.rpc.timeouts(), 1);
  EXPECT_EQ(f.rpc.aborted(), 0);
}

}  // namespace
}  // namespace quicksand
