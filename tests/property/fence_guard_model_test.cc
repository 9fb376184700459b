// Property: FenceGuard's dedup set behaves exactly like a std::set of
// executed request ids. Random operation streams (admits at the current and
// at a stale epoch with ids that ascend with jitter, arrive far out of
// order, or repeat; witnesses; absorbs between guards in both directions;
// copies that are then changed on one side) run against a pool of guards
// and a reference model each. After every operation each verdict, each
// Executed probe, executed_count() and the admitted/duplicates/fenced
// counters must match the model.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "quicksand/common/random.h"
#include "quicksand/health/fencing.h"

namespace quicksand {
namespace {

constexpr int kSeeds = 8;
constexpr int kSteps = 3000;
constexpr int kGuards = 4;
constexpr uint64_t kEpoch = 7;

// What a FenceGuard should know: its executed ids and its three counters.
struct Model {
  std::set<uint64_t> executed;
  int64_t admitted = 0;
  int64_t duplicates = 0;
  int64_t fenced = 0;

  FenceGuard::Admit Admit(uint64_t caller_epoch, uint64_t id) {
    if (caller_epoch != kEpoch) {
      ++fenced;
      return FenceGuard::Admit::kFenced;
    }
    if (!executed.insert(id).second) {
      ++duplicates;
      return FenceGuard::Admit::kDuplicate;
    }
    ++admitted;
    return FenceGuard::Admit::kExecute;
  }

  void Absorb(const Model& other) {
    executed.insert(other.executed.begin(), other.executed.end());
  }
};

// Draws request ids the way a frontend's retries and races produce them.
class IdSource {
 public:
  explicit IdSource(Rng& rng) : rng_(rng) {}

  uint64_t Next(const Model& model) {
    const uint64_t kind = rng_.NextBounded(10);
    if (kind < 5) {
      // One frontend's counter: ascending, with a late write now and then
      // landing a few ids below the newest.
      counter_ += 1 + rng_.NextBounded(3);
      return rng_.NextBool(0.2) ? counter_ - rng_.NextBounded(6) : counter_;
    }
    if (kind < 7) {
      return rng_.NextBounded(counter_ + 64);  // far out of order
    }
    if (kind < 9 && !model.executed.empty()) {
      return Pick(model);  // a retry of an executed id
    }
    return counter_ + 1 + rng_.NextBounded(4);  // just past the newest
  }

  // An executed id of `model`: the first at or above a uniform draw.
  uint64_t Pick(const Model& model) {
    return *model.executed.lower_bound(
        rng_.NextBounded(*model.executed.rbegin() + 1));
  }

 private:
  Rng& rng_;
  uint64_t counter_ = 100;
};

void ExpectMatches(const FenceGuard& guard, const Model& model, Rng& rng,
                   bool full_sweep) {
  ASSERT_EQ(guard.executed_count(), model.executed.size());
  ASSERT_EQ(guard.admitted(), model.admitted);
  ASSERT_EQ(guard.duplicates(), model.duplicates);
  ASSERT_EQ(guard.fenced(), model.fenced);
  const uint64_t top =
      model.executed.empty() ? 64 : *model.executed.rbegin() + 2;
  for (int i = 0; i < 24; ++i) {
    const uint64_t probe = rng.NextBounded(top);
    ASSERT_EQ(guard.Executed(probe), model.executed.count(probe) != 0)
        << "probe " << probe;
  }
  if (!full_sweep) {
    return;
  }
  for (const uint64_t id : model.executed) {
    ASSERT_TRUE(guard.Executed(id)) << "forgot " << id;
    if (model.executed.count(id + 1) == 0) {
      ASSERT_FALSE(guard.Executed(id + 1)) << "invented " << id + 1;
    }
  }
}

TEST(FenceGuardModelTest, RandomOperationsMatchASetOfIds) {
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(static_cast<uint64_t>(seed));
    IdSource ids(rng);
    std::vector<FenceGuard> guards(kGuards);
    std::vector<Model> models(kGuards);
    for (int step = 0; step < kSteps; ++step) {
      const size_t i = rng.NextBounded(kGuards);
      const size_t j = (i + 1 + rng.NextBounded(kGuards - 1)) % kGuards;
      const uint64_t op = rng.NextBounded(100);
      if (op < 60) {
        const uint64_t id = ids.Next(models[i]);
        ASSERT_EQ(guards[i].AdmitRequest(kEpoch, kEpoch, id),
                  models[i].Admit(kEpoch, id))
            << "step " << step << " id " << id;
      } else if (op < 68) {
        // Stale stamp: fenced, and the id is not recorded.
        const uint64_t id = ids.Next(models[i]);
        const uint64_t stale = kEpoch - 1 - rng.NextBounded(kEpoch - 1);
        ASSERT_EQ(guards[i].AdmitRequest(stale, kEpoch, id),
                  models[i].Admit(stale, id));
      } else if (op < 76) {
        const uint64_t id = ids.Next(models[i]);
        guards[i].Witness(id);
        models[i].executed.insert(id);
      } else if (op < 86) {
        // Absorb another guard: disjoint, overlapping or equal, whichever
        // the pool holds by now, in both directions across steps.
        guards[i].Absorb(guards[j]);
        models[i].Absorb(models[j]);
      } else if (op < 89) {
        // Absorb an empty guard, and absorb into one.
        guards[i].Absorb(FenceGuard{});
        FenceGuard fresh;
        fresh.Absorb(guards[j]);
        Model fresh_model;
        fresh_model.Absorb(models[j]);
        ASSERT_NO_FATAL_FAILURE(ExpectMatches(fresh, fresh_model, rng, true));
      } else if (op < 92) {
        // Absorb an equal set: a copy of itself.
        const FenceGuard copy = guards[i];
        guards[i].Absorb(copy);
      } else if (op < 97) {
        // Copy assignment: from here on the two evolve separately.
        guards[i] = guards[j];
        models[i] = models[j];
      } else {
        // Reset a slot, so empty and small guards keep appearing.
        guards[i] = FenceGuard{};
        models[i] = Model{};
      }
      const bool sweep = step % 100 == 0;
      for (int g = 0; g < kGuards; ++g) {
        ASSERT_NO_FATAL_FAILURE(
            ExpectMatches(guards[g], models[g], rng, sweep))
            << "step " << step << " guard " << g;
      }
    }
    for (int g = 0; g < kGuards; ++g) {
      ASSERT_NO_FATAL_FAILURE(ExpectMatches(guards[g], models[g], rng, true));
    }
  }
}

TEST(FenceGuardModelTest, ALateIdBelowTheNewestExecutes) {
  FenceGuard guard;
  EXPECT_EQ(guard.AdmitRequest(kEpoch, kEpoch, 10),
            FenceGuard::Admit::kExecute);
  EXPECT_EQ(guard.AdmitRequest(kEpoch, kEpoch, 14),
            FenceGuard::Admit::kExecute);
  // 12 raced 14 and lost: it was never executed, so it must execute now.
  EXPECT_FALSE(guard.Executed(12));
  EXPECT_EQ(guard.AdmitRequest(kEpoch, kEpoch, 12),
            FenceGuard::Admit::kExecute);
  EXPECT_EQ(guard.AdmitRequest(kEpoch, kEpoch, 12),
            FenceGuard::Admit::kDuplicate);
  EXPECT_EQ(guard.AdmitRequest(kEpoch, kEpoch, 3),
            FenceGuard::Admit::kExecute);
  EXPECT_TRUE(guard.Executed(14));
  EXPECT_FALSE(guard.Executed(13));
  EXPECT_EQ(guard.executed_count(), 4u);
  EXPECT_EQ(guard.admitted(), 4);
  EXPECT_EQ(guard.duplicates(), 1);
}

TEST(FenceGuardModelTest, ACopyAndItsSourceNeverShareLaterIds) {
  FenceGuard source;
  for (uint64_t id = 1; id <= 50; id += 2) {
    source.Witness(id);
  }
  FenceGuard copy = source;
  source.Witness(4);    // a late id on the source
  source.Witness(100);  // and a newer one
  copy.Witness(6);
  copy.Witness(101);
  EXPECT_TRUE(source.Executed(4));
  EXPECT_TRUE(source.Executed(100));
  EXPECT_FALSE(source.Executed(6));
  EXPECT_FALSE(source.Executed(101));
  EXPECT_TRUE(copy.Executed(6));
  EXPECT_TRUE(copy.Executed(101));
  EXPECT_FALSE(copy.Executed(4));
  EXPECT_FALSE(copy.Executed(100));
  EXPECT_EQ(source.executed_count(), 27u);
  EXPECT_EQ(copy.executed_count(), 27u);

  // The union holds both sides' ids once each.
  source.Absorb(copy);
  EXPECT_EQ(source.executed_count(), 29u);
  for (const uint64_t id : {4u, 6u, 100u, 101u, 1u, 49u}) {
    EXPECT_TRUE(source.Executed(id)) << id;
  }
  EXPECT_FALSE(copy.Executed(4));
}

}  // namespace
}  // namespace quicksand
