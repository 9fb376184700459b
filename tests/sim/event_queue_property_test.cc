// Property test for the event core: drive the now lane + heap scheduler with a
// seeded random mix of timed schedules, zero-delay schedules, Posts,
// past-deadline (negative-delay) schedules and schedules made from inside a
// firing event, and assert that the firing order matches a reference model —
// a std::multimap ordered by (time, seq), where every insertion takes the next
// seq. Also cross-checks the pending-event count against the model's size
// after every operation.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>

#include "quicksand/sim/simulator.h"

namespace quicksand {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class ModelChecker {
 public:
  explicit ModelChecker(uint64_t seed) : rng_(seed) {}

  // (time_ns, seq): the total order every event fires in.
  using Key = std::pair<int64_t, uint64_t>;

  void ScheduleOne(bool allow_chain) {
    // Mix of delays: the now lane (zero), the near heap, a coarse 1 µs grid
    // (so timed events often tie on time and must fire in seq order), and
    // the far heap.
    const uint64_t r = SplitMix64(rng_);
    Duration delay = Duration::Zero();
    switch (r % 8) {
      case 0:
      case 1:
      case 2:
        delay = Duration::Zero();
        break;
      case 3:
      case 4:
        delay = Duration::Nanos(static_cast<int64_t>(r / 8 % 64000));
        break;
      case 5:
        delay = Duration::Micros(1 + static_cast<int64_t>(r / 8 % 8));
        break;
      default:
        delay = Duration::Nanos(static_cast<int64_t>(r / 8 % 2000000));
        break;
    }
    const Key key{(sim_.Now() + delay).nanos(), next_seq_++};
    sim_.Schedule(delay, Track(key, allow_chain && (r >> 60) == 0));
  }

  // Post and a negative-delay Schedule (a deadline already past) both enter
  // the model at (Now(), next seq).
  void PostOne(bool allow_chain) {
    const uint64_t r = SplitMix64(rng_);
    const Key key{sim_.Now().nanos(), next_seq_++};
    sim_.Post(Track(key, allow_chain && (r >> 60) == 0));
  }

  void SchedulePastDeadline() {
    const uint64_t r = SplitMix64(rng_);
    const Key key{sim_.Now().nanos(), next_seq_++};
    sim_.Schedule(-Duration::Nanos(1 + static_cast<int64_t>(r % 2000000)),
                  Track(key, /*chain=*/false));
  }

  void StepSome(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (!sim_.Step()) {
        break;
      }
    }
  }

  void CheckCounts() const {
    ASSERT_EQ(sim_.pending_event_count(), model_.size());
  }

  void DrainAndVerify() {
    sim_.RunUntilIdle();
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(sim_.pending_event_count(), 0u);
    EXPECT_EQ(mismatches_, 0);
  }

  uint64_t Rand() { return SplitMix64(rng_); }
  size_t scheduled() const { return next_token_; }

 private:
  // Enters `key` in the model and returns the callback that checks it fires
  // in model order. A chained callback schedules once more while the queue
  // drains.
  SmallFn Track(Key key, bool chain) {
    const uint64_t token = next_token_++;
    model_.emplace(key, token);
    return [this, token, chain] {
      OnFire(token);
      if (chain) {
        ScheduleOne(/*allow_chain=*/false);
      }
    };
  }

  void OnFire(uint64_t token) {
    ASSERT_FALSE(model_.empty()) << "fired token " << token
                                 << " but the model expects nothing";
    const auto front = model_.begin();
    if (front->second != token) {
      ++mismatches_;
      ADD_FAILURE() << "fired token " << token << " but the model expects "
                    << front->second << " at t=" << front->first.first
                    << " seq=" << front->first.second;
    }
    EXPECT_EQ(front->first.first, sim_.Now().nanos());
    model_.erase(front);
  }

  Simulator sim_;
  uint64_t rng_;
  uint64_t next_seq_ = 1;
  uint64_t next_token_ = 0;
  std::multimap<Key, uint64_t> model_;
  int mismatches_ = 0;
};

TEST(EventQueuePropertyTest, RandomSchedulePostAndPastDeadlineMatchModel) {
  constexpr size_t kTargetEvents = 100000;
  ModelChecker checker(/*seed=*/0x9d5c0ffeeULL);
  while (checker.scheduled() < kTargetEvents) {
    const uint64_t op = checker.Rand() % 10;
    if (op < 5) {
      checker.ScheduleOne(/*allow_chain=*/true);
    } else if (op < 7) {
      checker.PostOne(/*allow_chain=*/true);
    } else if (op == 7) {
      checker.SchedulePastDeadline();
    } else {
      checker.StepSome(checker.Rand() % 16);
    }
    checker.CheckCounts();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  checker.DrainAndVerify();
}

TEST(EventQueuePropertyTest, SecondSeedMatchesModel) {
  ModelChecker checker(/*seed=*/42);
  while (checker.scheduled() < 20000) {
    const uint64_t op = checker.Rand() % 8;
    if (op < 4) {
      checker.ScheduleOne(/*allow_chain=*/true);
    } else if (op == 4) {
      checker.PostOne(/*allow_chain=*/true);
    } else if (op == 5) {
      checker.SchedulePastDeadline();
    } else {
      checker.StepSome(checker.Rand() % 32);
    }
    checker.CheckCounts();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  checker.DrainAndVerify();
}

}  // namespace
}  // namespace quicksand
