// Regression pin for a GCC 12 coroutine miscompilation (see the workaround
// note in quicksand/sim/task.h).
//
// `co_await F(heavy_temporary)` — where the temporary is non-trivially
// destructible (a std::string, or a lambda capturing one) — gets the
// temporary double-destroyed by GCC 12, corrupting the heap. The codebase
// convention is to materialize such tasks into named locals first; this test
// exercises the named-local pattern through deep awaits with string-capturing
// lambdas and would crash (under ASan: bad-free) if the convention regressed
// in the wrapped APIs it uses.
//
// A second GCC 12 hazard: co_await inside a loop condition, e.g.
// `while ((co_await ch.Recv()).has_value())`, crashed bench/micro_sim even
// with no heavy temporary. scripts/check.sh rejects that form; the drain test
// below pins the named-local replacement.

#include <string>

#include <gtest/gtest.h>

#include "quicksand/sim/channel.h"
#include "quicksand/sim/simulator.h"
#include "quicksand/sim/task.h"

namespace quicksand {
namespace {

struct Sink {
  std::string last;
  int64_t calls = 0;
};

template <typename Fn>
Task<int> Apply(Sink& sink, Fn fn) {
  const int result = co_await fn(sink);
  co_return result;
}

Task<int> StoreString(Simulator& sim, Sink& sink, std::string value) {
  // Named-task pattern: the string-capturing lambda temporary dies once,
  // here, before the await.
  auto task = Apply(sink, [value = std::move(value)](Sink& s) mutable -> Task<int> {
    s.last = std::move(value);
    ++s.calls;
    co_return static_cast<int>(s.last.size());
  });
  const int n = co_await std::move(task);
  co_await sim.Sleep(1_us);  // force a real suspension too
  co_return n;
}

Task<int> Chain(Simulator& sim, Sink& sink, int depth, std::string payload) {
  if (depth == 0) {
    auto task = StoreString(sim, sink, std::move(payload));
    co_return co_await std::move(task);
  }
  auto task = Chain(sim, sink, depth - 1, std::move(payload));
  co_return co_await std::move(task);
}

TEST(GccCoroRegressionTest, HeavyTemporariesSurviveDeepAwaits) {
  Simulator sim;
  Sink sink;
  const std::string payload(128, 'q');  // defeats SSO
  const int n = sim.BlockOn(Chain(sim, sink, 8, payload));
  EXPECT_EQ(n, 128);
  EXPECT_EQ(sink.last, payload);
  EXPECT_EQ(sink.calls, 1);
}

TEST(GccCoroRegressionTest, RepeatedHeavyCallsDoNotCorruptHeap) {
  Simulator sim;
  Sink sink;
  for (int i = 0; i < 100; ++i) {
    const std::string payload(64 + i, 'x');
    const int n = sim.BlockOn(StoreString(sim, sink, payload));
    EXPECT_EQ(n, 64 + i);
  }
  EXPECT_EQ(sink.calls, 100);
}

Task<> Produce(Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await ch.Send(i);
  }
  ch.Close();
}

Task<> Drain(Channel<int>& ch, int64_t* sum) {
  for (;;) {
    auto v = co_await ch.Recv();
    if (!v.has_value()) {
      break;
    }
    *sum += *v;
  }
}

TEST(GccCoroRegressionTest, ChannelDrainAwaitsIntoANamedLocal) {
  Simulator sim;
  Channel<int> ch(sim, 64);
  int64_t sum = 0;
  sim.Spawn(Produce(ch, 1000), "producer");
  sim.Spawn(Drain(ch, &sum), "consumer");
  sim.RunUntilIdle();
  EXPECT_EQ(sum, 999 * 1000 / 2);
}

}  // namespace
}  // namespace quicksand
