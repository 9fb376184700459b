// Property: a fenced write stream racing shard splits/merges/migrations
// never loses a write and never applies one twice.
//
// A writer drives the frontend with an open stream of keyed Puts (stable
// request ids, retries through the normal budget) while a reshaper fiber
// splits, merges, and migrates shards at random times. Invariants checked
// after draining, across several seeds:
//
//  * conservation — every request is accounted exactly once (ok or failed),
//  * exactly-once — summed ApplyCount over all shards equals the number of
//    successful writes: a write that raced a reshape either bounced and
//    re-applied on the new owner (wrong_shard does not burn the rid) or
//    deduped against the dedup state the payload carried across,
//  * coverage — the surviving ranges partition the hash space, and each
//    written key is owned by exactly one shard, which holds its value.
//
// The crash-safety tests below crash a reshape's destination mid-copy. The
// split case runs once per shard type (ShardedVector, ShardedMap,
// KvFrontend), and so does the merge case: all three share the one reshape
// protocol in sharding/reshape.h, so all must roll back cleanly.

#include <gtest/gtest.h>

#include <map>

#include "quicksand/adapt/shard_maintenance.h"
#include "quicksand/cluster/fault_injector.h"
#include "quicksand/common/bytes.h"
#include "quicksand/common/random.h"
#include "quicksand/serving/kv_frontend.h"

namespace quicksand {
namespace {

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  explicit Fixture(int machines = 4) {
    for (int i = 0; i < machines; ++i) {
      MachineSpec spec;
      spec.cores = 2;
      spec.memory_bytes = 2_GiB;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
  }
};

// Issues `writes` Puts over `key_space` keys at ~`qps`, one fiber each.
Task<> WriterFiber(Simulator& sim, KvFrontend& frontend, Rng& rng,
                   int writes, uint64_t key_space, double qps) {
  const double mean_gap_ns = 1e9 / qps;
  for (int i = 0; i < writes; ++i) {
    co_await sim.Sleep(Duration::Nanos(std::max<int64_t>(
        1, static_cast<int64_t>(rng.NextExponential(mean_gap_ns)))));
    sim.Spawn(frontend.Serve(rng.NextBounded(key_space), /*is_read=*/false),
              "writer_put");
  }
}

// Randomly reshapes while the writer runs: split a random shard, merge a
// random adjacent pair, or migrate a random shard, every 1-3ms.
Task<> ReshaperFiber(Simulator& sim, Runtime& rt, KvFrontend& frontend,
                     Rng& rng, int rounds, int* reshapes_done) {
  for (int i = 0; i < rounds; ++i) {
    co_await sim.Sleep(Duration::Micros(1000 + rng.NextBounded(2000)));
    Ctx ctx = rt.CtxOn(frontend.options().home);
    const size_t n = frontend.shards().size();
    const uint64_t dice = rng.NextBounded(3);
    Status status = Status::Ok();
    if ((dice == 0 && n < 6) || n == 1) {
      const ProcletId donor =
          frontend.shards()[rng.NextBounded(n)].id();
      const Result<uint64_t> point = frontend.SuggestSplitPoint(donor);
      if (!point.ok()) {
        continue;
      }
      const MachineId target =
          1 + static_cast<MachineId>(rng.NextBounded(rt.cluster().size() - 1));
      auto split = frontend.SplitShard(ctx, donor, *point, target);
      status = co_await std::move(split);
    } else if (dice == 1 && n >= 2) {
      const size_t left = rng.NextBounded(n - 1);
      auto merge = frontend.MergeShards(ctx, frontend.shards()[left].id(),
                                        frontend.shards()[left + 1].id());
      status = co_await std::move(merge);
    } else {
      const ProcletId shard = frontend.shards()[rng.NextBounded(n)].id();
      const MachineId target =
          1 + static_cast<MachineId>(rng.NextBounded(rt.cluster().size() - 1));
      auto migrate = frontend.MigrateShard(ctx, shard, target);
      status = co_await std::move(migrate);
    }
    if (status.ok()) {
      ++*reshapes_done;
    }
    // Failures (e.g. a migrate bouncing off its own machine) are fine —
    // the property is about the writes, not the reshape success rate.
  }
}

TEST(ReshapeConsistencyTest, FencedWritesSurviveConcurrentReshaping) {
  constexpr int kWrites = 250;
  constexpr uint64_t kKeySpace = 48;
  int total_reshapes = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Fixture f;
    KvFrontendOptions opt;
    opt.shards = 2;
    opt.max_attempts = 6;  // reshape bounces must not exhaust attempts
    KvFrontend frontend(*f.rt, opt);
    ASSERT_TRUE(f.sim.BlockOn(frontend.Start(f.rt->CtxOn(0))).ok());

    Rng writer_rng(seed);
    Rng reshaper_rng(seed * 7919);
    int reshapes = 0;
    f.sim.Spawn(WriterFiber(f.sim, frontend, writer_rng, kWrites, kKeySpace,
                            /*qps=*/10000.0),
                "writer");
    f.sim.Spawn(ReshaperFiber(f.sim, *f.rt, frontend, reshaper_rng,
                              /*rounds=*/15, &reshapes),
                "reshaper");
    // Writer needs ~25ms, reshaper ~30ms; drain well past both.
    f.sim.RunFor(Duration::Millis(120));

    // Conservation: every offered request accounted exactly once.
    ASSERT_EQ(frontend.offered(), kWrites) << "seed " << seed;
    ASSERT_EQ(frontend.ok_in_slo() + frontend.ok_late() + frontend.failed(),
              frontend.offered())
        << "seed " << seed;
    const int64_t succeeded = frontend.ok_in_slo() + frontend.ok_late();

    // Exactly-once: total apply count == successful writes. A lost write
    // (dropped payload) makes this too small; a double apply (dedup state
    // lost in a reshape) makes it too big.
    int64_t total_applies = 0;
    for (const auto& shard : frontend.shards()) {
      const auto* p = f.rt->UnsafeGet<FencedKvProclet>(shard.id());
      ASSERT_NE(p, nullptr);
      for (uint64_t k = 0; k < kKeySpace; ++k) {
        total_applies += p->ApplyCount(k);
      }
    }
    EXPECT_EQ(total_applies, succeeded) << "seed " << seed;

    // Coverage: ranges partition the hash space...
    const auto shards = frontend.SampleShards(f.sim.Now());
    ASSERT_FALSE(shards.empty());
    EXPECT_EQ(shards.front().range_begin, 0u) << "seed " << seed;
    EXPECT_EQ(shards.back().range_end, UINT64_MAX) << "seed " << seed;
    for (size_t i = 0; i + 1 < shards.size(); ++i) {
      EXPECT_EQ(shards[i].range_end, shards[i + 1].range_begin)
          << "seed " << seed;
    }
    // ...and each key has exactly one owner; a written key's value lives
    // there and nowhere else.
    for (uint64_t k = 0; k < kKeySpace; ++k) {
      int owners = 0;
      int holders = 0;
      for (const auto& shard : frontend.shards()) {
        const auto* p = f.rt->UnsafeGet<FencedKvProclet>(shard.id());
        if (p->Owns(k)) {
          ++owners;
          if (p->Get(k).ok()) {
            ++holders;
          }
        }
      }
      EXPECT_EQ(owners, 1) << "seed " << seed << " key " << k;
      EXPECT_LE(holders, owners) << "seed " << seed << " key " << k;
    }
    total_reshapes += reshapes;
  }
  // The property is vacuous if reshapes never actually interleaved.
  EXPECT_GT(total_reshapes, 10);
}

// Spawn needs a Task<>; parks a reshape's status for the test body to
// assert on after the crash races it.
Task<> Park(Task<Status> reshape, Status* out) {
  *out = co_await std::move(reshape);
}

// Shared setup for the KvFrontend donor-crash and unsafe-mode tests at the
// end of this file: 2 shards, 40 acked writes, a delay spike stretching the
// donor->target copy so a crash scheduled ~1ms into the split is guaranteed
// to land between ExtractUpperRange and the payload install on the far side.
struct MidSplitCrash {
  Fixture f;
  FaultInjector faults{f.sim, f.cluster};
  std::unique_ptr<KvFrontend> frontend;
  ProcletId donor = 0;
  ProcletId other = 0;
  MachineId donor_machine = kInvalidMachineId;
  MachineId target = kInvalidMachineId;
  Status split_status = Status::Ok();
  static constexpr uint64_t kKeys = 40;

  explicit MidSplitCrash(bool unsafe_reshape) {
    f.rt->AttachFaultInjector(faults);
    KvFrontendOptions opt;
    opt.shards = 2;
    opt.unsafe_reshape_for_test = unsafe_reshape;
    frontend = std::make_unique<KvFrontend>(*f.rt, opt);
    EXPECT_TRUE(f.sim.BlockOn(frontend->Start(f.rt->CtxOn(0))).ok());
    for (uint64_t k = 0; k < kKeys; ++k) {
      f.sim.BlockOn(frontend->Serve(k, /*is_read=*/false));
    }
    EXPECT_EQ(frontend->failed(), 0);

    donor = frontend->shards()[0].id();
    other = frontend->shards()[1].id();
    donor_machine = f.rt->LocationOf(donor);
    // A host with no shard on it: the split target.
    for (MachineId m = 1; m < f.rt->cluster().size(); ++m) {
      if (m != donor_machine && m != f.rt->LocationOf(other)) {
        target = m;
        break;
      }
    }
    EXPECT_NE(target, kInvalidMachineId);
    faults.ScheduleDelaySpike(f.sim.Now(), donor_machine, target,
                              /*extra=*/Duration::Millis(5),
                              /*duration=*/Duration::Millis(20));
  }

  void StartSplit() {
    const Result<uint64_t> point = frontend->SuggestSplitPoint(donor);
    ASSERT_TRUE(point.ok());
    f.sim.Spawn(Park(frontend->SplitShard(f.rt->CtxOn(0), donor, *point, target),
                     &split_status),
                "racing_split");
    f.sim.RunFor(Duration::Millis(1));  // gate + extract done, copy in flight
  }
};

enum class ShardType { kShardedVector, kShardedMap, kKvFrontend };

std::string ShardTypeName(const ::testing::TestParamInfo<ShardType>& info) {
  switch (info.param) {
    case ShardType::kShardedVector:
      return "ShardedVector";
    case ShardType::kShardedMap:
      return "ShardedMap";
    case ShardType::kKvFrontend:
      return "KvFrontend";
  }
  return "unknown";
}

// Crash-mid-copy harness, one subclass per shard type. Three machines: the
// routing state lives on m0, the reshape's source shard on m1, and its
// destination on m2. A delay spike stretches every m1 -> m2 copy, so a
// crash of m2 1ms into the reshape lands mid-copy.
class CopyCrash {
 public:
  static constexpr int kEntries = 200;

  CopyCrash() { f.rt->AttachFaultInjector(faults); }
  virtual ~CopyCrash() = default;

  // Writes kEntries acked entries: into one shard on m1 (to split), or into
  // two adjacent shards with the left one on m2 and the right one on m1 (to
  // merge). Fills must_survive: every entry for a split (its donor stays
  // up), the right shard's entries for a merge (the left died with m2).
  virtual void Load(bool two_shards) = 0;
  virtual Task<Status> Split() = 0;
  virtual Task<Status> Merge() = 0;
  virtual bool Readable(uint64_t entry) = 0;
  virtual int64_t rollbacks() const = 0;

  // Runs the reshape and crashes m2 1ms in; returns the reshape's status.
  Status CrashTargetMidCopy(Task<Status> reshape) {
    // Best-fit placement sends a new ds shard to the machine with the most
    // free memory: make that m2. (KvFrontend pins it there.)
    for (MachineId m : {MachineId{0}, MachineId{1}}) {
      QS_CHECK(f.cluster.machine(m).memory().TryCharge(256_MiB));
    }
    faults.ScheduleDelaySpike(f.sim.Now(), 1, 2, /*extra=*/Duration::Millis(5),
                              /*duration=*/Duration::Millis(20));
    Status status = Status::Internal("reshape never finished");
    f.sim.Spawn(Park(std::move(reshape), &status), "racing_reshape");
    f.sim.RunFor(Duration::Millis(1));  // gates closed, copy in flight
    faults.FailNow(2);
    f.sim.RunFor(Duration::Millis(40));
    return status;
  }

  Ctx ctx() { return f.rt->CtxOn(0); }

  Fixture f{3};
  FaultInjector faults{f.sim, f.cluster};
  std::vector<uint64_t> must_survive;

 protected:
  // The value written under entry `i`.
  static int64_t Value(int64_t i) { return i * 7 + 1; }

  // Moves each proclet to its machine (the shard index belongs on m0).
  void Place(std::initializer_list<std::pair<ProcletId, MachineId>> moves) {
    for (const auto& [proclet, machine] : moves) {
      if (f.rt->LocationOf(proclet) != machine) {
        QS_CHECK(f.sim.BlockOn(f.rt->Migrate(proclet, machine)).ok());
      }
    }
  }
};

class VectorCopyCrash : public CopyCrash {
 public:
  using Vec = ShardedVector<int64_t>;

  void Load(bool two_shards) override {
    Vec::Options options;
    // Two shards: appends seal a shard every kEntries / 2 elements.
    options.max_shard_bytes = two_shards ? kEntries / 2 * 8 : 1_MiB;
    vec_ = *f.sim.BlockOn(Vec::Create(ctx(), options));
    for (int64_t i = 0; i < kEntries; ++i) {
      QS_CHECK(f.sim.BlockOn(vec_.PushBack(ctx(), Value(i))).ok());
    }
    f.sim.BlockOn(vec_.router().Refresh(ctx()));
    shards_ = vec_.router().cached_shards();
    if (two_shards) {
      QS_CHECK(shards_.size() >= 2);
      Place({{vec_.index().id(), 0}, {shards_[0].proclet, 2}, {shards_[1].proclet, 1}});
      for (uint64_t i = shards_[1].begin; i < shards_[1].end; ++i) {
        must_survive.push_back(i);
      }
    } else {
      Place({{vec_.index().id(), 0}, {shards_[0].proclet, 1}});
      for (uint64_t i = 0; i < kEntries; ++i) {
        must_survive.push_back(i);
      }
    }
  }
  Task<Status> Split() override {
    return SplitShard(ctx(), vec_, shards_[0], &stats_);
  }
  Task<Status> Merge() override {
    return MergeShards(ctx(), vec_, shards_[0], shards_[1], &stats_);
  }
  bool Readable(uint64_t i) override {
    const Result<int64_t> v = f.sim.BlockOn(vec_.Get(ctx(), i));
    return v.ok() && *v == Value(static_cast<int64_t>(i));
  }
  int64_t rollbacks() const override { return stats_.rollbacks; }

 private:
  Vec vec_;
  std::vector<ShardInfo> shards_;
  ReshapeStats stats_;
};

class MapCopyCrash : public CopyCrash {
 public:
  using Map = ShardedMap<int64_t, int64_t>;

  void Load(bool two_shards) override {
    map_ = *f.sim.BlockOn(Map::Create(ctx()));
    for (int64_t k = 0; k < kEntries; ++k) {
      QS_CHECK(f.sim.BlockOn(map_.Put(ctx(), k, Value(k))).ok());
    }
    f.sim.BlockOn(map_.router().Refresh(ctx()));
    if (two_shards) {
      // A fault-free split makes the adjacent pair.
      QS_CHECK(f.sim.BlockOn(SplitShard(ctx(), map_, map_.router().cached_shards()[0]))
                   .ok());
      f.sim.BlockOn(map_.router().Refresh(ctx()));
    }
    shards_ = map_.router().cached_shards();
    if (two_shards) {
      Place({{map_.index().id(), 0}, {shards_[0].proclet, 2}, {shards_[1].proclet, 1}});
    } else {
      Place({{map_.index().id(), 0}, {shards_[0].proclet, 1}});
    }
    const ShardInfo& source = shards_[two_shards ? 1 : 0];
    for (int64_t k = 0; k < kEntries; ++k) {
      const uint64_t proj = DefaultShardProjection<int64_t>{}(k);
      if (proj >= source.begin && proj < source.end) {
        must_survive.push_back(static_cast<uint64_t>(k));
      }
    }
  }
  Task<Status> Split() override {
    return SplitShard(ctx(), map_, shards_[0], &stats_);
  }
  Task<Status> Merge() override {
    return MergeShards(ctx(), map_, shards_[0], shards_[1], &stats_);
  }
  bool Readable(uint64_t k) override {
    const auto key = static_cast<int64_t>(k);
    const Result<int64_t> v = f.sim.BlockOn(map_.Get(ctx(), key));
    return v.ok() && *v == Value(key);
  }
  int64_t rollbacks() const override { return stats_.rollbacks; }

 private:
  Map map_;
  std::vector<ShardInfo> shards_;
  ReshapeStats stats_;
};

class KvCopyCrash : public CopyCrash {
 public:
  void Load(bool two_shards) override {
    KvFrontendOptions opt;
    opt.shards = two_shards ? 2 : 1;
    frontend_ = std::make_unique<KvFrontend>(*f.rt, opt);
    QS_CHECK(f.sim.BlockOn(frontend_->Start(ctx())).ok());
    for (uint64_t k = 0; k < kEntries; ++k) {
      f.sim.BlockOn(frontend_->Serve(k, /*is_read=*/false));
    }
    QS_CHECK(frontend_->failed() == 0);
    left_ = frontend_->shards()[0].id();
    right_ = frontend_->shards()[two_shards ? 1 : 0].id();
    if (two_shards) {
      Place({{left_, 2}, {right_, 1}});
    } else {
      Place({{left_, 1}});
    }
    const auto* source = f.rt->UnsafeGet<FencedKvProclet>(right_);
    for (uint64_t k = 0; k < kEntries; ++k) {
      if (source->Owns(k)) {
        must_survive.push_back(k);
      }
    }
  }
  Task<Status> Split() override {
    const Result<uint64_t> point = frontend_->SuggestSplitPoint(left_);
    QS_CHECK(point.ok());
    return frontend_->SplitShard(ctx(), left_, *point, /*target=*/2);
  }
  Task<Status> Merge() override {
    return frontend_->MergeShards(ctx(), left_, right_);
  }
  // Exactly one routed owner holds the key, applied exactly once.
  bool Readable(uint64_t k) override {
    int owners = 0;
    bool held = true;
    for (const auto& shard : frontend_->shards()) {
      const auto* p = f.rt->UnsafeGet<FencedKvProclet>(shard.id());
      if (p != nullptr && p->Owns(k)) {
        ++owners;
        held = held && p->Get(k).ok() && p->ApplyCount(k) == 1;
      }
    }
    return owners == 1 && held;
  }
  int64_t rollbacks() const override { return frontend_->reshape_rollbacks(); }

 private:
  std::unique_ptr<KvFrontend> frontend_;
  // The split donor is left_ == right_; a merge folds right_ into left_.
  ProcletId left_ = 0;
  ProcletId right_ = 0;
};

std::unique_ptr<CopyCrash> MakeCopyCrash(ShardType type) {
  switch (type) {
    case ShardType::kShardedVector:
      return std::make_unique<VectorCopyCrash>();
    case ShardType::kShardedMap:
      return std::make_unique<MapCopyCrash>();
    case ShardType::kKvFrontend:
      return std::make_unique<KvCopyCrash>();
  }
  return nullptr;
}

class SplitCrashTest : public ::testing::TestWithParam<ShardType> {};

TEST_P(SplitCrashTest, TargetCrashMidCopyRollsBackEveryAckedWrite) {
  std::unique_ptr<CopyCrash> t = MakeCopyCrash(GetParam());
  t->Load(/*two_shards=*/false);
  const Status status = t->CrashTargetMidCopy(t->Split());

  // The split failed and rolled the extracted range back into the donor:
  // every acked entry still reads back, exactly once.
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(t->rollbacks(), 1);
  ASSERT_EQ(t->must_survive.size(), static_cast<size_t>(CopyCrash::kEntries));
  int readable = 0;
  for (uint64_t entry : t->must_survive) {
    readable += t->Readable(entry) ? 1 : 0;
  }
  EXPECT_EQ(readable, CopyCrash::kEntries);
}

INSTANTIATE_TEST_SUITE_P(ShardTypes, SplitCrashTest,
                         ::testing::Values(ShardType::kShardedVector,
                                           ShardType::kShardedMap,
                                           ShardType::kKvFrontend),
                         ShardTypeName);

class MergeCrashTest : public ::testing::TestWithParam<ShardType> {};

TEST_P(MergeCrashTest, DestinationCrashMidCopyRestoresTheRightShard) {
  std::unique_ptr<CopyCrash> t = MakeCopyCrash(GetParam());
  t->Load(/*two_shards=*/true);
  const Status status = t->CrashTargetMidCopy(t->Merge());

  // The merge failed and restored the right shard exactly as it was. The
  // left shard's own entries died with m2 — the crash's loss, not the
  // merge's.
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(t->rollbacks(), 1);
  ASSERT_FALSE(t->must_survive.empty());
  int readable = 0;
  for (uint64_t entry : t->must_survive) {
    readable += t->Readable(entry) ? 1 : 0;
  }
  EXPECT_EQ(readable, static_cast<int>(t->must_survive.size()));
}

INSTANTIATE_TEST_SUITE_P(ShardTypes, MergeCrashTest,
                         ::testing::Values(ShardType::kShardedVector,
                                           ShardType::kShardedMap,
                                           ShardType::kKvFrontend),
                         ShardTypeName);

TEST(ReshapeCrashSafetyTest, DonorCrashMidCopyDiscardsOrphanAndRepairs) {
  // A donor crash alone does not lose the payload: the bytes left the NIC
  // before the host died, so the copy delivers and the split completes
  // (the fabric checks only the DESTINATION at delivery). The discard path
  // needs the copy to fail with the rollback target already gone — crash
  // the target mid-copy (copy fails), then the donor (rollback impossible).
  MidSplitCrash t(/*unsafe_reshape=*/false);
  t.StartSplit();
  t.faults.FailNow(t.target);
  t.f.sim.RunFor(Duration::Millis(1));
  t.faults.FailNow(t.donor_machine);
  t.f.sim.RunFor(Duration::Millis(40));

  // The donor died with its data — that loss is legal (no replication) —
  // but the orphan half must be fence-aborted, not installed: installing
  // it would resurrect a stale fragment of a dead shard.
  EXPECT_FALSE(t.split_status.ok());
  EXPECT_EQ(t.frontend->reshape_payload_discards(), 1);
  EXPECT_EQ(t.frontend->reshape_rollbacks(), 0);

  // RepairLostShards replaces the dead routing entry with a fresh empty
  // shard; the table must return to fully live.
  for (int i = 0; i < 10 && !t.frontend->TableFullyLive(); ++i) {
    t.f.sim.BlockOn(t.frontend->RepairLostShards(t.f.rt->CtxOn(0)));
    t.f.sim.RunFor(Duration::Millis(3));
  }
  EXPECT_TRUE(t.frontend->TableFullyLive());
  EXPECT_GE(t.frontend->repairs(), 1);

  // Coverage: the surviving ranges still partition the hash space.
  const auto shards = t.frontend->SampleShards(t.f.sim.Now());
  ASSERT_FALSE(shards.empty());
  EXPECT_EQ(shards.front().range_begin, 0u);
  EXPECT_EQ(shards.back().range_end, UINT64_MAX);
  for (size_t i = 0; i + 1 < shards.size(); ++i) {
    EXPECT_EQ(shards[i].range_end, shards[i + 1].range_begin);
  }

  // Keys owned by the untouched shard survive exactly once.
  const auto* survivor = t.f.rt->UnsafeGet<FencedKvProclet>(t.other);
  ASSERT_NE(survivor, nullptr);
  int survivor_keys = 0;
  for (uint64_t k = 0; k < MidSplitCrash::kKeys; ++k) {
    if (survivor->Owns(k)) {
      ++survivor_keys;
      EXPECT_TRUE(survivor->Get(k).ok()) << "key " << k;
      EXPECT_EQ(survivor->ApplyCount(k), 1) << "key " << k;
    }
  }
  EXPECT_GT(survivor_keys, 0);
}

TEST(ReshapeCrashSafetyTest, UnsafeModeDemonstratesTheLossTheseTestsPin) {
  // Teeth check: with the pre-hardening blind install, the same crash
  // vaporizes the extracted range — acked writes and all. If this test
  // ever starts passing the full-presence assertion, the unsafe path has
  // quietly stopped reproducing the bug and the hardened tests above have
  // lost their witness.
  MidSplitCrash t(/*unsafe_reshape=*/true);
  t.StartSplit();
  t.faults.FailNow(t.target);
  t.f.sim.RunFor(Duration::Millis(40));

  EXPECT_EQ(t.frontend->reshape_rollbacks(), 0);
  int64_t live_applies = 0;
  for (const auto& shard : t.frontend->shards()) {
    if (t.f.rt->IsLost(shard.id())) {
      continue;  // the limbo corpse the blind install "succeeded" into
    }
    const auto* p = t.f.rt->UnsafeGet<FencedKvProclet>(shard.id());
    if (p == nullptr) {
      continue;
    }
    for (uint64_t k = 0; k < MidSplitCrash::kKeys; ++k) {
      live_applies += p->ApplyCount(k);
    }
  }
  // Strictly fewer applies than acked writes: data went missing.
  EXPECT_LT(live_applies, static_cast<int64_t>(MidSplitCrash::kKeys));
}

}  // namespace
}  // namespace quicksand
