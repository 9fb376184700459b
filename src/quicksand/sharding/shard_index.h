// ShardIndexProclet and ShardRouter: the general sharding library (§3.2).
//
// A sharded data structure partitions its elements into disjoint key ranges,
// each stored in a separate memory proclet (a "shard"). An *index memory
// proclet* maintains the map from ranges to shard proclets, so clients can
// address elements without knowing which machine currently stores them.
// Clients cache the index (ShardRouter) and refresh lazily: a request that
// reaches the wrong shard after a split/merge gets kOutOfRange back, and the
// router re-pulls the index snapshot.
//
// The ranges are sorted by `begin` and disjoint: AddShard and UpdateShard
// refuse an overlap, so a snapshot (a walk of the index's map) routes a key
// by binary search, and the range that runs to UINT64_MAX, when there is
// one, is its last entry. A router holds its snapshot as one immutable,
// shared vector that a refresh replaces whole: copying a handle copies a
// pointer, and Refresh or Invalidate on one copy leaves the others' view
// alone. A scan that suspends holds `snapshot()` for its duration, since a
// refresh on the same handle (another fiber's) would otherwise free the list
// under it.

#ifndef QUICKSAND_SHARDING_SHARD_INDEX_H_
#define QUICKSAND_SHARDING_SHARD_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "quicksand/common/status.h"
#include "quicksand/runtime/runtime.h"

namespace quicksand {

// One shard's entry in the index. `begin`/`end` bound the keys it owns
// ([begin, end), over the uint64 sharding-key space); count/bytes are
// maintained by split/merge and are advisory for routing and scheduling.
struct ShardInfo {
  ProcletId proclet = kInvalidProcletId;
  uint64_t begin = 0;
  uint64_t end = 0;
  int64_t count = 0;
  int64_t bytes = 0;
};

class ShardIndexProclet : public ProcletBase {
 public:
  static constexpr ProcletKind kKind = ProcletKind::kMemory;

  explicit ShardIndexProclet(const ProcletInit& init) : ProcletBase(init) {}

  uint64_t version() const { return version_; }
  size_t shard_count() const { return shards_.size(); }

  // Full snapshot plus its version, for client caches.
  std::pair<uint64_t, std::vector<ShardInfo>> Snapshot() const {
    std::vector<ShardInfo> out;
    out.reserve(shards_.size());
    for (const auto& [begin, info] : shards_) {
      out.push_back(info);
    }
    return {version_, out};
  }

  Result<ShardInfo> LookupKey(uint64_t key) const {
    auto it = shards_.upper_bound(key);
    if (it == shards_.begin()) {
      return Status::NotFound("key below all shards");
    }
    --it;
    if (key >= it->second.end) {
      return Status::NotFound("key in a gap between shards");
    }
    return it->second;
  }

  Status AddShard(const ShardInfo& info) {
    if (info.begin >= info.end) {
      return Status::InvalidArgument("empty shard range");
    }
    // Reject overlap with an existing shard.
    auto next = shards_.lower_bound(info.begin);
    if (next != shards_.end() && next->second.begin < info.end) {
      return Status::FailedPrecondition("range overlaps an existing shard");
    }
    if (next != shards_.begin()) {
      auto prev = std::prev(next);
      if (prev->second.end > info.begin) {
        return Status::FailedPrecondition("range overlaps an existing shard");
      }
    }
    shards_.emplace(info.begin, info);
    ++version_;
    RecordMutation(
        [info](ProcletBase& b) {
          return static_cast<ShardIndexProclet&>(b).AddShard(info);
        },
        kEntryRecordBytes);
    return Status::Ok();
  }

  Status RemoveShard(ProcletId proclet) {
    for (auto it = shards_.begin(); it != shards_.end(); ++it) {
      if (it->second.proclet == proclet) {
        shards_.erase(it);
        ++version_;
        RecordMutation(
            [proclet](ProcletBase& b) {
              return static_cast<ShardIndexProclet&>(b).RemoveShard(proclet);
            },
            kEntryRecordBytes);
        return Status::Ok();
      }
    }
    return Status::NotFound("no shard with that proclet id");
  }

  // Replaces the entry whose range contains info.begin (used when a split
  // shrinks a shard, a merge widens one, or stats change). A range that
  // would reach into the next shard's is refused, as AddShard refuses one.
  Status UpdateShard(const ShardInfo& info) {
    auto it = shards_.upper_bound(info.begin);
    if (it == shards_.begin()) {
      return Status::NotFound("no shard covers that key");
    }
    --it;
    if (it->second.proclet != info.proclet) {
      return Status::FailedPrecondition("shard at that key has a different proclet");
    }
    auto next = std::next(it);
    if (next != shards_.end() && next->second.begin < info.end) {
      return Status::FailedPrecondition("range overlaps an existing shard");
    }
    shards_.erase(it);
    shards_.emplace(info.begin, info);
    ++version_;
    RecordMutation(
        [info](ProcletBase& b) {
          return static_cast<ShardIndexProclet&>(b).UpdateShard(info);
        },
        kEntryRecordBytes);
    return Status::Ok();
  }

  // The neighbor immediately after `proclet`'s range (for merges).
  Result<ShardInfo> NextNeighbor(ProcletId proclet) const {
    for (auto it = shards_.begin(); it != shards_.end(); ++it) {
      if (it->second.proclet == proclet) {
        auto next = std::next(it);
        if (next == shards_.end()) {
          return Status::NotFound("no next neighbor");
        }
        return next->second;
      }
    }
    return Status::NotFound("no shard with that proclet id");
  }

  // --- Durability -----------------------------------------------------------

  std::optional<StateImage> CaptureState() const override {
    IndexImage image{shards_, version_, heap_bytes()};
    const int64_t bytes =
        heap_bytes() +
        static_cast<int64_t>(shards_.size()) * kEntryRecordBytes;
    return StateImage{std::any(std::move(image)), bytes};
  }

  Status RestoreState(const StateImage& image) override {
    const IndexImage* img = std::any_cast<IndexImage>(&image.data);
    if (img == nullptr) {
      return Status::InvalidArgument("image is not a ShardIndexProclet image");
    }
    if (!TryChargeHeap(img->heap_bytes)) {
      return Status::ResourceExhausted("restore target is out of memory");
    }
    shards_ = img->shards;
    version_ = img->version + 1;  // force router cache refreshes after restore
    return Status::Ok();
  }

 private:
  struct IndexImage {
    std::map<uint64_t, ShardInfo> shards;
    uint64_t version = 1;
    int64_t heap_bytes = 0;
  };

  // Wire size of one logged index entry (ShardInfo's five 8-byte fields).
  static constexpr int64_t kEntryRecordBytes = 40;

  std::map<uint64_t, ShardInfo> shards_;  // begin -> info
  uint64_t version_ = 1;
};

// Client-side cached view of a shard index: one shared, immutable snapshot
// (see the file comment).
class ShardRouter {
 public:
  using Snapshot = std::shared_ptr<const std::vector<ShardInfo>>;

  ShardRouter() = default;
  explicit ShardRouter(Ref<ShardIndexProclet> index) : index_(index) {}

  Ref<ShardIndexProclet> index() const { return index_; }
  uint64_t cached_version() const { return version_; }
  // Null before the first refresh and after Invalidate.
  const Snapshot& snapshot() const { return snapshot_; }
  const std::vector<ShardInfo>& cached_shards() const {
    static const std::vector<ShardInfo> kNone;
    return snapshot_ != nullptr ? *snapshot_ : kNone;
  }

  // Routes a key through the cache, fetching the index on first use.
  Task<Result<ShardInfo>> Route(Ctx ctx, uint64_t key) {
    if (cached_shards().empty()) {
      co_await Refresh(ctx);
    }
    Result<ShardInfo> hit = LookupCached(key);
    if (hit.ok()) {
      co_return hit;
    }
    co_await Refresh(ctx);
    co_return LookupCached(key);
  }

  // Pulls a fresh snapshot from the index proclet; returns its version.
  Task<uint64_t> Refresh(Ctx ctx) {
    auto call = index_.Call(
        ctx, [](ShardIndexProclet& p) -> Task<std::pair<uint64_t, std::vector<ShardInfo>>> {
          co_return p.Snapshot();
        });
    auto [version, shards] = co_await std::move(call);
    version_ = version;
    snapshot_ = std::make_shared<const std::vector<ShardInfo>>(std::move(shards));
    co_return version;
  }

  void Invalidate() {
    snapshot_.reset();
    version_ = 0;
  }

  // The cached shard covering `key`, without calling the index: the last
  // range that begins at or below it, if it reaches past `key`.
  Result<ShardInfo> LookupCached(uint64_t key) const {
    const std::vector<ShardInfo>& shards = cached_shards();
    auto after = std::upper_bound(
        shards.begin(), shards.end(), key,
        [](uint64_t k, const ShardInfo& shard) { return k < shard.begin; });
    if (after != shards.begin() && key < std::prev(after)->end) {
      return *std::prev(after);
    }
    return Status::NotFound("no cached shard covers key");
  }

  // The cached shard whose range runs to UINT64_MAX (a ShardedVector's
  // tail), without calling the index: the last entry, when it is one.
  Result<ShardInfo> CachedTail() const {
    const std::vector<ShardInfo>& shards = cached_shards();
    if (!shards.empty() && shards.back().end == UINT64_MAX) {
      return shards.back();
    }
    return Status::NotFound("no cached tail");
  }

 private:
  Ref<ShardIndexProclet> index_;
  uint64_t version_ = 0;
  Snapshot snapshot_;
};

}  // namespace quicksand

#endif  // QUICKSAND_SHARDING_SHARD_INDEX_H_
