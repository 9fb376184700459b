#include "quicksand/sim/simulator.h"

#include <vector>

#include <gtest/gtest.h>

#include "quicksand/sim/task.h"

namespace quicksand {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), SimTime::Zero());
}

TEST(SimulatorTest, ScheduleAdvancesTime) {
  Simulator sim;
  SimTime fired = SimTime::Max();
  sim.Schedule(5_ms, [&] { fired = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(fired, SimTime::Zero() + 5_ms);
  EXPECT_EQ(sim.Now(), SimTime::Zero() + 5_ms);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(3_ms, [&] { order.push_back(3); });
  sim.Schedule(1_ms, [&] { order.push_back(1); });
  sim.Schedule(2_ms, [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, SameTimeEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(1_ms, [&] { order.push_back(1); });
  sim.Schedule(1_ms, [&] { order.push_back(2); });
  sim.Schedule(1_ms, [&] { order.push_back(3); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  bool early = false;
  bool late = false;
  sim.Schedule(1_ms, [&] { early = true; });
  sim.Schedule(10_ms, [&] { late = true; });
  sim.RunUntil(SimTime::Zero() + 5_ms);
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.Now(), SimTime::Zero() + 5_ms);
  sim.RunUntilIdle();
  EXPECT_TRUE(late);
}

TEST(SimulatorTest, NestedSchedulingFromEvent) {
  Simulator sim;
  SimTime second = SimTime::Max();
  sim.Schedule(1_ms, [&] { sim.Schedule(2_ms, [&] { second = sim.Now(); }); });
  sim.RunUntilIdle();
  EXPECT_EQ(second, SimTime::Zero() + 3_ms);
}

Task<> SleepTwice(Simulator& sim, std::vector<SimTime>& stamps) {
  co_await sim.Sleep(1_ms);
  stamps.push_back(sim.Now());
  co_await sim.Sleep(2_ms);
  stamps.push_back(sim.Now());
}

TEST(SimulatorTest, FiberSleepsAdvanceVirtualTime) {
  Simulator sim;
  std::vector<SimTime> stamps;
  Fiber f = sim.Spawn(SleepTwice(sim, stamps), "sleeper");
  sim.RunUntilIdle();
  EXPECT_TRUE(f.done());
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_EQ(stamps[0], SimTime::Zero() + 1_ms);
  EXPECT_EQ(stamps[1], SimTime::Zero() + 3_ms);
}

Task<int> Add(Simulator& sim, int a, int b) {
  co_await sim.Sleep(1_us);
  co_return a + b;
}

Task<int> Compose(Simulator& sim) {
  const int x = co_await Add(sim, 1, 2);
  const int y = co_await Add(sim, x, 10);
  co_return y;
}

TEST(SimulatorTest, BlockOnReturnsValueThroughNestedTasks) {
  Simulator sim;
  EXPECT_EQ(sim.BlockOn(Compose(sim)), 13);
  EXPECT_EQ(sim.Now(), SimTime::Zero() + 2_us);
}

Task<> Forever(Simulator& sim) {
  for (;;) {
    co_await sim.Sleep(1_ms);
  }
}

TEST(SimulatorTest, InfiniteFiberIsDestroyedAtTeardown) {
  // Must not leak (validated under ASan in CI-style runs) nor crash.
  Simulator sim;
  sim.Spawn(Forever(sim), "forever");
  sim.RunUntil(SimTime::Zero() + 10_ms);
  EXPECT_EQ(sim.live_fiber_count(), 1u);
}

Task<> Throws(Simulator& sim) {
  co_await sim.Sleep(1_us);
  throw std::runtime_error("boom");
}

Task<> JoinAndCatch(Simulator& sim, Fiber f, bool& caught) {
  try {
    co_await f.Join();
  } catch (const std::runtime_error& e) {
    caught = std::string(e.what()) == "boom";
  }
}

TEST(SimulatorTest, JoinRethrowsFiberException) {
  Simulator sim;
  Fiber f = sim.Spawn(Throws(sim), "thrower");
  bool caught = false;
  sim.Spawn(JoinAndCatch(sim, f, caught), "joiner");
  sim.RunUntilIdle();
  EXPECT_TRUE(caught);
  EXPECT_TRUE(f.failed());
}

TEST(SimulatorTest, UnjoinedFailedFiberIsCounted) {
  Simulator sim;
  sim.Spawn(Throws(sim), "thrower");
  sim.RunUntilIdle();
  EXPECT_EQ(sim.failed_fiber_count(), 1);
}

Task<> YieldOrder(Simulator& sim, std::vector<int>& order, int id) {
  order.push_back(id);
  co_await sim.Yield();
  order.push_back(id + 100);
}

TEST(SimulatorTest, YieldInterleavesFibers) {
  Simulator sim;
  std::vector<int> order;
  sim.Spawn(YieldOrder(sim, order, 1), "a");
  sim.Spawn(YieldOrder(sim, order, 2), "b");
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 101, 102}));
}

Task<> JoinWaiter(Simulator& sim, Fiber target, SimTime& joined_at) {
  co_await target.Join();
  joined_at = sim.Now();
}

TEST(SimulatorTest, JoinWaitsForCompletion) {
  Simulator sim;
  std::vector<SimTime> stamps;
  Fiber worker = sim.Spawn(SleepTwice(sim, stamps), "w");
  SimTime joined_at = SimTime::Zero();
  sim.Spawn(JoinWaiter(sim, worker, joined_at), "j");
  sim.RunUntilIdle();
  EXPECT_EQ(joined_at, SimTime::Zero() + 3_ms);
}

TEST(SimulatorTest, JoinAfterCompletionReturnsImmediately) {
  Simulator sim;
  std::vector<SimTime> stamps;
  Fiber worker = sim.Spawn(SleepTwice(sim, stamps), "w");
  sim.RunUntilIdle();
  ASSERT_TRUE(worker.done());
  SimTime joined_at = SimTime::Max();
  sim.Spawn(JoinWaiter(sim, worker, joined_at), "j");
  sim.RunUntilIdle();
  EXPECT_EQ(joined_at, SimTime::Zero() + 3_ms);
}

TEST(SimulatorTest, JoinAllWaitsForEveryFiber) {
  Simulator sim;
  std::vector<SimTime> s1;
  std::vector<SimTime> s2;
  std::vector<Fiber> fibers;
  fibers.push_back(sim.Spawn(SleepTwice(sim, s1), "w1"));
  fibers.push_back(sim.Spawn(SleepTwice(sim, s2), "w2"));
  sim.BlockOn(JoinAll(fibers));
  EXPECT_EQ(s1.size(), 2u);
  EXPECT_EQ(s2.size(), 2u);
}

TEST(SimulatorDeathTest, BlockOnDeadlockAborts) {
  // A task that waits on an event nobody sets deadlocks the queue.
  EXPECT_DEATH(
      {
        Simulator sim;
        struct Never {
          static Task<> Wait() {
            co_await std::suspend_always{};  // parked forever
          }
        };
        sim.BlockOn(Never::Wait());
      },
      "deadlock");
}

}  // namespace
}  // namespace quicksand
