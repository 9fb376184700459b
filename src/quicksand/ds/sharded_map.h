// ShardedMap<K, V>: an associative container partitioned into memory
// proclets by a uint64 projection of the key (§3.2).
//
// The projection (default: std::hash) maps keys onto the uint64 sharding
// space; each shard proclet owns a half-open projection range and stores its
// entries in an ordered map keyed by (projection, key). The map starts as a
// single shard covering the whole space; the adaptive controller (§3.3)
// splits shards whose heap exceeds the configured maximum at their median
// projection, and merges adjacent undersized shards — the hash-table
// shrink scenario the paper describes.
//
// ShardedSet<K> is the value-less specialization at the bottom of this file.

#ifndef QUICKSAND_DS_SHARDED_MAP_H_
#define QUICKSAND_DS_SHARDED_MAP_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "quicksand/common/bytes.h"
#include "quicksand/common/status.h"
#include "quicksand/common/wire.h"
#include "quicksand/runtime/runtime.h"
#include "quicksand/sharding/sharded_handle.h"

namespace quicksand {

template <typename K>
struct DefaultShardProjection {
  uint64_t operator()(const K& key) const { return std::hash<K>{}(key); }
};

template <typename K, typename V, typename Proj = DefaultShardProjection<K>>
class MapShardProclet : public ProcletBase {
 public:
  static constexpr ProcletKind kKind = ProcletKind::kMemory;

  MapShardProclet(const ProcletInit& init, uint64_t begin, uint64_t end)
      : ProcletBase(init), begin_(begin), end_(end) {}
  // Restore/backup factory form; RestoreState supplies the range and
  // contents (an empty [0, 0) range owns nothing until then).
  explicit MapShardProclet(const ProcletInit& init)
      : MapShardProclet(init, 0, 0) {}

  uint64_t range_begin() const { return begin_; }
  uint64_t range_end() const { return end_; }
  int64_t count() const { return static_cast<int64_t>(entries_.size()); }
  int64_t data_bytes() const { return data_bytes_; }

  Status Put(K key, V value) {
    const uint64_t proj = Proj{}(key);
    if (!Owns(proj)) {
      return Status::OutOfRange("key projects outside this shard");
    }
    const int64_t bytes = WireSizeOf(key) + WireSizeOf(value);
    auto it = entries_.find(EntryKey{proj, key});
    const int64_t old_bytes = it == entries_.end() ? 0 : it->second.bytes;
    const int64_t delta = bytes - old_bytes;
    if (delta > 0 && !TryChargeHeap(delta)) {
      return Status::ResourceExhausted("host machine out of memory");
    }
    if (delta < 0) {
      ReleaseHeap(-delta);
    }
    data_bytes_ += delta;
    if (replicated()) {
      // Replay calls Put on the backup; the backup has no sink attached, so
      // the log does not recurse.
      RecordMutation(
          [key, value](ProcletBase& b) {
            return static_cast<MapShardProclet&>(b).Put(key, value);
          },
          bytes);
    } else {
      MarkDirty(bytes);
    }
    entries_[EntryKey{proj, std::move(key)}] = Entry{std::move(value), bytes};
    return Status::Ok();
  }

  Result<V> Get(const K& key) const {
    const uint64_t proj = Proj{}(key);
    if (!Owns(proj)) {
      return Status::OutOfRange("key projects outside this shard");
    }
    auto it = entries_.find(EntryKey{proj, key});
    if (it == entries_.end()) {
      return Status::NotFound("no such key");
    }
    return it->second.value;
  }

  // kNotFound if absent; kOutOfRange if wrongly routed.
  Status Erase(const K& key) {
    const uint64_t proj = Proj{}(key);
    if (!Owns(proj)) {
      return Status::OutOfRange("key projects outside this shard");
    }
    auto it = entries_.find(EntryKey{proj, key});
    if (it == entries_.end()) {
      return Status::NotFound("no such key");
    }
    ReleaseHeap(it->second.bytes);
    data_bytes_ -= it->second.bytes;
    entries_.erase(it);
    if (replicated()) {
      RecordMutation(
          [key](ProcletBase& b) {
            // Idempotent: a duplicate delivery finds the key already gone.
            Status erased = static_cast<MapShardProclet&>(b).Erase(key);
            return erased.code() == StatusCode::kNotFound ? Status::Ok()
                                                          : erased;
          },
          WireSizeOf(key));
    } else {
      MarkDirty(WireSizeOf(key));
    }
    return Status::Ok();
  }

  bool Contains(const K& key) const {
    const uint64_t proj = Proj{}(key);
    return Owns(proj) && entries_.count(EntryKey{proj, key}) > 0;
  }

  // Copies out all entries (per-shard scan unit for iteration).
  std::vector<std::pair<K, V>> Items() const {
    std::vector<std::pair<K, V>> out;
    out.reserve(entries_.size());
    for (const auto& [ekey, entry] : entries_) {
      out.emplace_back(ekey.key, entry.value);
    }
    return out;
  }

  // --- Split/merge hooks (gate must be closed; see sharding/reshape.h) ------

  // The entries projecting into [range_begin, range_end).
  struct SplitPayload {
    uint64_t range_begin;
    uint64_t range_end;
    std::vector<std::tuple<K, V, int64_t>> entries;  // key, value, bytes
    int64_t total_bytes;
  };

  // The median projection. Fails if all entries share one projection
  // (nothing to split on).
  Result<uint64_t> SplitPoint() const {
    if (entries_.size() < 2) {
      return Status::FailedPrecondition("too few entries to split");
    }
    auto mid = entries_.begin();
    std::advance(mid, static_cast<ptrdiff_t>(entries_.size() / 2));
    if (mid->first.proj == begin_) {
      // Skip forward to the first projection > begin_.
      while (mid != entries_.end() && mid->first.proj == begin_) {
        ++mid;
      }
      if (mid == entries_.end()) {
        return Status::FailedPrecondition("all entries share one projection");
      }
    }
    return mid->first.proj;
  }

  // Removes the entries projecting into [point, end) for a split; this
  // shard shrinks to [begin, point).
  SplitPayload ExtractUpperRange(uint64_t point) {
    QS_CHECK_MSG(gate_closed(), "ExtractUpperRange requires a closed gate");
    SplitPayload payload;
    payload.range_begin = point;
    payload.range_end = end_;
    payload.total_bytes = 0;
    auto first_moved = entries_.lower_bound(EntryKey{point, K{}});
    for (auto it = first_moved; it != entries_.end(); ++it) {
      payload.total_bytes += it->second.bytes;
      payload.entries.emplace_back(it->first.key, std::move(it->second.value),
                                   it->second.bytes);
    }
    entries_.erase(first_moved, entries_.end());
    ReleaseHeap(payload.total_bytes);
    data_bytes_ -= payload.total_bytes;
    end_ = point;
    return payload;
  }

  // Installs a payload into this empty shard of the same range (a new split
  // half, or a merge donor taking its entries back). On failure the payload
  // is left untouched so the caller can roll it back.
  Status AdoptPayload(SplitPayload&& payload) {
    QS_CHECK_MSG(gate_closed(), "AdoptPayload requires a closed gate");
    QS_CHECK(payload.range_begin == begin_ && payload.range_end == end_);
    if (!TryChargeHeap(payload.total_bytes)) {
      return Status::ResourceExhausted("host machine out of memory");
    }
    data_bytes_ += payload.total_bytes;
    for (auto& [key, value, bytes] : payload.entries) {
      const uint64_t proj = Proj{}(key);
      entries_[EntryKey{proj, std::move(key)}] = Entry{std::move(value), bytes};
    }
    retired_ = false;  // a merge rollback re-animates the donor
    return Status::Ok();
  }

  // Removes everything and widens nothing (merge donor side). The shard is
  // *retired*: until destroyed (or restored by a rollback AdoptPayload) it
  // answers every request with kOutOfRange, so clients with stale routes
  // refresh instead of trusting a false NotFound.
  SplitPayload ExtractAll() {
    QS_CHECK_MSG(gate_closed(), "ExtractAll requires a closed gate");
    SplitPayload payload;
    payload.range_begin = begin_;
    payload.range_end = end_;
    payload.total_bytes = data_bytes_;
    for (auto& [ekey, entry] : entries_) {
      payload.entries.emplace_back(ekey.key, std::move(entry.value), entry.bytes);
    }
    entries_.clear();
    ReleaseHeap(data_bytes_);
    data_bytes_ = 0;
    retired_ = true;
    return payload;
  }

  // Absorbs the right neighbor's payload (a merge, or a split rollback) and
  // takes over its range. On failure the payload is left untouched.
  Status AbsorbRightNeighbor(SplitPayload&& payload) {
    QS_CHECK_MSG(gate_closed(), "AbsorbRightNeighbor requires a closed gate");
    QS_CHECK(payload.range_begin == end_);
    if (!TryChargeHeap(payload.total_bytes)) {
      return Status::ResourceExhausted("host machine out of memory");
    }
    data_bytes_ += payload.total_bytes;
    end_ = payload.range_end;
    for (auto& [key, value, bytes] : payload.entries) {
      const uint64_t proj = Proj{}(key);
      entries_[EntryKey{proj, std::move(key)}] = Entry{std::move(value), bytes};
    }
    return Status::Ok();
  }

  // --- Durability -----------------------------------------------------------

  std::optional<StateImage> CaptureState() const override {
    MapImage image{begin_, end_, retired_, data_bytes_, entries_, heap_bytes()};
    return StateImage{std::any(std::move(image)), heap_bytes()};
  }

  Status RestoreState(const StateImage& image) override {
    const MapImage* img = std::any_cast<MapImage>(&image.data);
    if (img == nullptr) {
      return Status::InvalidArgument("image is not a MapShardProclet image");
    }
    if (!TryChargeHeap(img->heap_bytes)) {
      return Status::ResourceExhausted("restore target is out of memory");
    }
    begin_ = img->begin;
    end_ = img->end;
    retired_ = img->retired;
    data_bytes_ = img->data_bytes;
    entries_ = img->entries;
    return Status::Ok();
  }

 private:
  struct EntryKey {
    uint64_t proj;
    K key;
    bool operator<(const EntryKey& other) const {
      if (proj != other.proj) {
        return proj < other.proj;
      }
      return key < other.key;
    }
  };

  struct Entry {
    V value;
    int64_t bytes = 0;
  };

  struct MapImage {
    uint64_t begin;
    uint64_t end;
    bool retired;
    int64_t data_bytes;
    std::map<EntryKey, Entry> entries;
    int64_t heap_bytes;
  };

  bool Owns(uint64_t proj) const {
    return !retired_ && proj >= begin_ && (proj < end_ || end_ == UINT64_MAX);
  }

  uint64_t begin_;
  uint64_t end_;  // UINT64_MAX means "through the top of the space"
  bool retired_ = false;
  int64_t data_bytes_ = 0;
  std::map<EntryKey, Entry> entries_;
};

template <typename K, typename V, typename Proj = DefaultShardProjection<K>>
class ShardedMap : public ShardedHandle {
 public:
  using Shard = MapShardProclet<K, V, Proj>;
  using Options = ShardedOptions;

  ShardedMap() = default;

  static Task<Result<ShardedMap>> Create(Ctx ctx, Options options = Options{}) {
    PlacementRequest index_req;
    index_req.heap_bytes = options.shard_base_bytes;
    auto create_index = ctx.rt->Create<ShardIndexProclet>(ctx, index_req);
    Result<Ref<ShardIndexProclet>> index = co_await std::move(create_index);
    if (!index.ok()) {
      co_return index.status();
    }
    ShardedMap map;
    map.index_ = *index;
    map.router_ = ShardRouter(*index);
    map.options_ = options;

    PlacementRequest shard_req;
    shard_req.heap_bytes = options.shard_base_bytes;
    auto create_shard =
        ctx.rt->Create<Shard>(ctx, shard_req, uint64_t{0}, UINT64_MAX);
    Result<Ref<Shard>> shard = co_await std::move(create_shard);
    if (!shard.ok()) {
      co_return shard.status();
    }
    ShardInfo info;
    info.proclet = shard->id();
    info.begin = 0;
    info.end = UINT64_MAX;
    auto add = map.index_.Call(ctx, [info](ShardIndexProclet& p) -> Task<Status> {
      co_return p.AddShard(info);
    });
    Status added = co_await std::move(add);
    if (!added.ok()) {
      co_return added;
    }
    Status protected_index =
        co_await map.template ProtectNew<ShardIndexProclet>(ctx, index->id());
    if (!protected_index.ok()) {
      co_return protected_index;
    }
    Status protected_shard =
        co_await map.template ProtectNew<Shard>(ctx, shard->id());
    if (!protected_shard.ok()) {
      co_return protected_shard;
    }
    co_return map;
  }

  Task<Status> Put(Ctx ctx, K key, V value) {
    const uint64_t proj = Proj{}(key);
    const int64_t request_bytes = WireSizeOf(key) + WireSizeOf(value);
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      Result<ShardInfo> info = co_await RouteSafe(ctx, proj);
      if (!info.ok()) {
        co_return info.status();
      }
      Ref<Shard> shard(ctx.rt, info->proclet);
      auto call = shard.Call(
          ctx,
          [key, value](Shard& s) mutable -> Task<Status> {
            co_return s.Put(std::move(key), std::move(value));
          },
          request_bytes);
      std::optional<Status> status;
      bool shard_lost = false;
      try {
        status.emplace(co_await std::move(call));
      } catch (const ProcletGoneError&) {
        router_.Invalidate();
        continue;
      } catch (const ProcletLostError&) {
        router_.Invalidate();
        shard_lost = true;  // co_await is illegal in a handler; stall below
      }
      if (shard_lost) {
        const bool restored = co_await AwaitShardRestore(ctx, info->proclet);
        if (!restored) {
          co_return Status::DataLoss(LostShardMessage(*info));
        }
        continue;
      }
      if (status->code() == StatusCode::kOutOfRange) {
        router_.Invalidate();
        continue;
      }
      co_return *status;
    }
    co_return Status::Aborted("too many put retries");
  }

  Task<Result<V>> Get(Ctx ctx, K key) {
    const uint64_t proj = Proj{}(key);
    const int64_t request_bytes = WireSizeOf(key);
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      Result<ShardInfo> info = co_await RouteSafe(ctx, proj);
      if (!info.ok()) {
        co_return info.status();
      }
      Ref<Shard> shard(ctx.rt, info->proclet);
      auto call = shard.Call(
          ctx, [key](Shard& s) -> Task<Result<V>> { co_return s.Get(key); },
          request_bytes);
      std::optional<Result<V>> value;
      bool shard_lost = false;
      try {
        value.emplace(co_await std::move(call));
      } catch (const ProcletGoneError&) {
        router_.Invalidate();
        continue;
      } catch (const ProcletLostError&) {
        router_.Invalidate();
        shard_lost = true;
      }
      if (shard_lost) {
        const bool restored = co_await AwaitShardRestore(ctx, info->proclet);
        if (!restored) {
          co_return Status::DataLoss(LostShardMessage(*info));
        }
        continue;
      }
      if (!value->ok() && value->status().code() == StatusCode::kOutOfRange) {
        router_.Invalidate();
        continue;
      }
      co_return std::move(*value);
    }
    co_return Status::Aborted("too many get retries");
  }

  Task<Status> Erase(Ctx ctx, K key) {
    const uint64_t proj = Proj{}(key);
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      Result<ShardInfo> info = co_await RouteSafe(ctx, proj);
      if (!info.ok()) {
        co_return info.status();
      }
      Ref<Shard> shard(ctx.rt, info->proclet);
      auto call = shard.Call(ctx, [key](Shard& s) -> Task<Status> {
        co_return s.Erase(key);
      });
      std::optional<Status> status;
      bool shard_lost = false;
      try {
        status.emplace(co_await std::move(call));
      } catch (const ProcletGoneError&) {
        router_.Invalidate();
        continue;
      } catch (const ProcletLostError&) {
        router_.Invalidate();
        shard_lost = true;
      }
      if (shard_lost) {
        const bool restored = co_await AwaitShardRestore(ctx, info->proclet);
        if (!restored) {
          co_return Status::DataLoss(LostShardMessage(*info));
        }
        continue;
      }
      if (status->code() == StatusCode::kOutOfRange) {
        router_.Invalidate();
        continue;
      }
      co_return *status;
    }
    co_return Status::Aborted("too many erase retries");
  }

  Task<Result<bool>> Contains(Ctx ctx, K key) {
    auto get = Get(ctx, std::move(key));
    Result<V> value = co_await std::move(get);
    if (value.ok()) {
      co_return true;
    }
    if (value.status().code() == StatusCode::kNotFound) {
      co_return false;
    }
    co_return value.status();
  }

  Task<Result<int64_t>> Size(Ctx ctx) {
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      Status refreshed = co_await RefreshSafe(ctx);
      if (!refreshed.ok()) {
        co_return refreshed;
      }
      int64_t total = 0;
      bool retry = false;
      for (const ShardInfo& info : router_.cached_shards()) {
        Ref<Shard> shard(ctx.rt, info.proclet);
        auto call = shard.Call(ctx, [](Shard& s) -> Task<int64_t> {
          co_return s.count();
        });
        bool shard_lost = false;
        try {
          total += co_await std::move(call);
        } catch (const ProcletGoneError&) {
          router_.Invalidate();
          co_return Status::Aborted("shard set changed during size scan");
        } catch (const ProcletLostError&) {
          router_.Invalidate();
          shard_lost = true;
        }
        if (shard_lost) {
          const bool restored = co_await AwaitShardRestore(ctx, info.proclet);
          if (!restored) {
            co_return Status::DataLoss(LostShardMessage(info));
          }
          retry = true;
          break;
        }
      }
      if (retry) {
        continue;
      }
      co_return total;
    }
    co_return Status::Aborted("too many size retries");
  }

  // Copies out every entry, shard by shard (iteration primitive).
  Task<Result<std::vector<std::pair<K, V>>>> Items(Ctx ctx) {
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      Status refreshed = co_await RefreshSafe(ctx);
      if (!refreshed.ok()) {
        co_return refreshed;
      }
      std::vector<std::pair<K, V>> out;
      bool retry = false;
      for (const ShardInfo& info : router_.cached_shards()) {
        Ref<Shard> shard(ctx.rt, info.proclet);
        auto call = shard.Call(ctx, [](Shard& s) -> Task<std::vector<std::pair<K, V>>> {
          co_return s.Items();
        });
        bool shard_lost = false;
        try {
          std::vector<std::pair<K, V>> items = co_await std::move(call);
          for (auto& item : items) {
            out.push_back(std::move(item));
          }
        } catch (const ProcletGoneError&) {
          router_.Invalidate();
          co_return Status::Aborted("shard set changed during scan");
        } catch (const ProcletLostError&) {
          router_.Invalidate();
          shard_lost = true;
        }
        if (shard_lost) {
          const bool restored = co_await AwaitShardRestore(ctx, info.proclet);
          if (!restored) {
            co_return Status::DataLoss(LostShardMessage(info));
          }
          retry = true;
          break;
        }
      }
      if (retry) {
        continue;
      }
      co_return out;
    }
    co_return Status::Aborted("too many scan retries");
  }

 private:
  // Unrecoverable loss: report the projection range whose entries died with
  // the machine instead of retrying forever.
  static std::string LostShardMessage(const ShardInfo& info) {
    return "keys projecting to [" + std::to_string(info.begin) + ", " +
           std::to_string(info.end) + ") lost to a machine failure";
  }
};

// ShardedSet<K>: membership-only wrapper over ShardedMap.
template <typename K, typename Proj = DefaultShardProjection<K>>
class ShardedSet {
 public:
  struct Options {
    int64_t max_shard_bytes = 16 * kMiB;
  };

  ShardedSet() = default;

  static Task<Result<ShardedSet>> Create(Ctx ctx, Options options = Options{}) {
    typename ShardedMap<K, char, Proj>::Options map_options;
    map_options.max_shard_bytes = options.max_shard_bytes;
    auto create = ShardedMap<K, char, Proj>::Create(ctx, map_options);
    Result<ShardedMap<K, char, Proj>> map = co_await std::move(create);
    if (!map.ok()) {
      co_return map.status();
    }
    ShardedSet set;
    set.map_ = *map;
    co_return set;
  }

  Task<Status> Insert(Ctx ctx, K key) { return map_.Put(ctx, std::move(key), 0); }
  Task<Status> Erase(Ctx ctx, K key) { return map_.Erase(ctx, std::move(key)); }
  Task<Result<bool>> Contains(Ctx ctx, K key) {
    return map_.Contains(ctx, std::move(key));
  }
  Task<Result<int64_t>> Size(Ctx ctx) { return map_.Size(ctx); }

  ShardedMap<K, char, Proj>& underlying_map() { return map_; }

 private:
  ShardedMap<K, char, Proj> map_;
};

}  // namespace quicksand

#endif  // QUICKSAND_DS_SHARDED_MAP_H_
