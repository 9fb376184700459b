// ShardedVector<T>: an append-ordered vector partitioned into granular
// memory proclets (§3.2, §4).
//
// Elements are keyed by their index. Each shard proclet owns a contiguous
// index range; the tail shard accepts appends until it reaches
// max_shard_bytes, at which point the appender seals it and adds a fresh
// tail — so data decomposes into independently schedulable memory proclets
// as it is loaded (this is how Fig. 2's input images spread across machines
// with free memory). Shards can further split/merge under the adaptive
// controller (§3.3).
//
// The handle is a cheap client-side object; any number of actors may hold
// copies. Routing goes through a cached index snapshot; stale routes get
// kOutOfRange/kFailedPrecondition from shards and refresh-retry.

#ifndef QUICKSAND_DS_SHARDED_VECTOR_H_
#define QUICKSAND_DS_SHARDED_VECTOR_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "quicksand/common/status.h"
#include "quicksand/common/wire.h"
#include "quicksand/runtime/runtime.h"
#include "quicksand/sharding/sharded_handle.h"

namespace quicksand {

template <typename T>
class VectorShardProclet : public ProcletBase {
 public:
  static constexpr ProcletKind kKind = ProcletKind::kMemory;

  struct AppendResult {
    uint64_t index;
    int64_t shard_bytes;
    int64_t shard_count;
  };

  // A shard owning indices [base, end). end == UINT64_MAX marks the growing
  // tail, which accepts appends; any other end is a sealed range.
  VectorShardProclet(const ProcletInit& init, uint64_t base,
                     uint64_t end = UINT64_MAX)
      : ProcletBase(init), base_(base), sealed_(end != UINT64_MAX) {}
  // Restore/backup factory form; RestoreState supplies base_ and contents.
  explicit VectorShardProclet(const ProcletInit& init)
      : VectorShardProclet(init, 0) {}

  uint64_t range_begin() const { return base_; }
  // The index's convention: the tail's range runs to UINT64_MAX.
  uint64_t range_end() const { return sealed_ ? end_index() : UINT64_MAX; }
  uint64_t end_index() const { return base_ + elements_.size(); }
  int64_t count() const { return static_cast<int64_t>(elements_.size()); }
  int64_t data_bytes() const { return data_bytes_; }
  bool sealed() const { return sealed_; }

  Result<AppendResult> Append(T value) {
    if (sealed_) {
      return Status::FailedPrecondition("shard is sealed");
    }
    const int64_t bytes = WireSizeOf(value);
    if (!TryChargeHeap(bytes)) {
      return Status::ResourceExhausted("host machine out of memory");
    }
    data_bytes_ += bytes;
    element_bytes_.push_back(bytes);
    const uint64_t index = base_ + elements_.size();
    if (replicated()) {
      RecordMutation(
          [index, value, bytes](ProcletBase& b) {
            return static_cast<VectorShardProclet&>(b).ApplyAppend(index, value,
                                                                   bytes);
          },
          bytes);
    } else {
      MarkDirty(bytes);
    }
    elements_.push_back(std::move(value));
    return AppendResult{index, data_bytes_, count()};
  }

  // Idempotent; returns the element count at seal time.
  int64_t Seal() {
    if (!sealed_) {
      sealed_ = true;
      RecordMutation(
          [](ProcletBase& b) {
            static_cast<VectorShardProclet&>(b).sealed_ = true;
            return Status::Ok();
          },
          kControlRecordBytes);
    }
    return count();
  }

  Result<T> Get(uint64_t index) const {
    if (index < base_ || index >= end_index()) {
      return Status::OutOfRange("index not in this shard");
    }
    return elements_[static_cast<size_t>(index - base_)];
  }

  Status Set(uint64_t index, T value) {
    if (index < base_ || index >= end_index()) {
      return Status::OutOfRange("index not in this shard");
    }
    const size_t slot = static_cast<size_t>(index - base_);
    const int64_t new_bytes = WireSizeOf(value);
    const int64_t delta = new_bytes - element_bytes_[slot];
    if (delta > 0 && !TryChargeHeap(delta)) {
      return Status::ResourceExhausted("host machine out of memory");
    }
    if (delta < 0) {
      ReleaseHeap(-delta);
    }
    data_bytes_ += delta;
    element_bytes_[slot] = new_bytes;
    if (replicated()) {
      RecordMutation(
          [index, value, new_bytes](ProcletBase& b) {
            return static_cast<VectorShardProclet&>(b).ApplySet(index, value,
                                                                new_bytes);
          },
          new_bytes);
    } else {
      MarkDirty(new_bytes);
    }
    elements_[slot] = std::move(value);
    return Status::Ok();
  }

  // Copies out up to `count` elements starting at `begin` (clamped to this
  // shard's range). Used by cross-shard reads and the prefetcher.
  Result<std::vector<T>> GetRange(uint64_t begin, uint64_t count) const {
    if (begin < base_ || begin >= end_index()) {
      return Status::OutOfRange("range start not in this shard");
    }
    const size_t first = static_cast<size_t>(begin - base_);
    const size_t n =
        std::min(static_cast<size_t>(count), elements_.size() - first);
    return std::vector<T>(elements_.begin() + static_cast<ptrdiff_t>(first),
                          elements_.begin() + static_cast<ptrdiff_t>(first + n));
  }

  // --- Split/merge hooks (gate must be closed; see sharding/reshape.h) ------

  // Elements [range_begin, range_end) of a shard, in index order. A payload
  // ending at UINT64_MAX carries the growing tail role with it.
  struct SplitPayload {
    uint64_t range_begin;
    uint64_t range_end;
    std::vector<T> elements;
    std::vector<int64_t> element_bytes;
    int64_t total_bytes;
  };

  // The element midpoint: the lower half stays, the upper half moves.
  Result<uint64_t> SplitPoint() const {
    if (elements_.size() < 2) {
      return Status::FailedPrecondition("too few elements to split");
    }
    return base_ + elements_.size() / 2;
  }

  // Removes [point, end) for a split; the caller moves it into a new shard.
  // A split shard no longer grows in place, so this one seals.
  SplitPayload ExtractUpperRange(uint64_t point) {
    QS_CHECK_MSG(gate_closed(), "ExtractUpperRange requires a closed gate");
    QS_CHECK(point > base_ && point < end_index());
    const size_t keep = static_cast<size_t>(point - base_);
    SplitPayload payload;
    payload.range_begin = point;
    payload.range_end = range_end();
    payload.total_bytes = 0;
    payload.elements.assign(std::make_move_iterator(elements_.begin() +
                                                    static_cast<ptrdiff_t>(keep)),
                            std::make_move_iterator(elements_.end()));
    payload.element_bytes.assign(element_bytes_.begin() + static_cast<ptrdiff_t>(keep),
                                 element_bytes_.end());
    elements_.resize(keep);
    element_bytes_.resize(keep);
    for (int64_t b : payload.element_bytes) {
      payload.total_bytes += b;
    }
    data_bytes_ -= payload.total_bytes;
    ReleaseHeap(payload.total_bytes);
    sealed_ = true;
    return payload;
  }

  // Installs a payload into this empty shard (a new split half, or a merge
  // donor taking its elements back), tail role included. On failure the
  // payload is left untouched so the caller can roll it back — losing it
  // would lose data.
  Status AdoptPayload(SplitPayload&& payload) {
    QS_CHECK_MSG(gate_closed(), "AdoptPayload requires a closed gate");
    QS_CHECK(elements_.empty());
    QS_CHECK(payload.range_begin == base_);
    if (!TryChargeHeap(payload.total_bytes)) {
      return Status::ResourceExhausted("host machine out of memory");
    }
    data_bytes_ = payload.total_bytes;
    elements_ = std::move(payload.elements);
    element_bytes_ = std::move(payload.element_bytes);
    sealed_ = payload.range_end != UINT64_MAX;
    return Status::Ok();
  }

  // Appends the right neighbor's elements (a merge, or a split rollback),
  // taking over its tail role. Pre: `payload` starts exactly at
  // end_index(). On failure the payload is left untouched.
  Status AbsorbRightNeighbor(SplitPayload&& payload) {
    QS_CHECK_MSG(gate_closed(), "AbsorbRightNeighbor requires a closed gate");
    QS_CHECK(payload.range_begin == end_index());
    if (!TryChargeHeap(payload.total_bytes)) {
      return Status::ResourceExhausted("host machine out of memory");
    }
    data_bytes_ += payload.total_bytes;
    for (auto& e : payload.elements) {
      elements_.push_back(std::move(e));
    }
    element_bytes_.insert(element_bytes_.end(), payload.element_bytes.begin(),
                          payload.element_bytes.end());
    sealed_ = payload.range_end != UINT64_MAX;
    return Status::Ok();
  }

  // Removes everything (for the donor side of a merge).
  SplitPayload ExtractAll() {
    QS_CHECK_MSG(gate_closed(), "ExtractAll requires a closed gate");
    SplitPayload payload;
    payload.range_begin = base_;
    payload.range_end = range_end();
    payload.elements = std::move(elements_);
    payload.element_bytes = std::move(element_bytes_);
    payload.total_bytes = data_bytes_;
    elements_.clear();
    element_bytes_.clear();
    ReleaseHeap(data_bytes_);
    data_bytes_ = 0;
    return payload;
  }

  // --- Durability -----------------------------------------------------------

  std::optional<StateImage> CaptureState() const override {
    VectorImage image{base_, sealed_, data_bytes_, elements_, element_bytes_,
                      heap_bytes()};
    return StateImage{std::any(std::move(image)), heap_bytes()};
  }

  Status RestoreState(const StateImage& image) override {
    const VectorImage* img = std::any_cast<VectorImage>(&image.data);
    if (img == nullptr) {
      return Status::InvalidArgument("image is not a VectorShardProclet image");
    }
    if (!TryChargeHeap(img->heap_bytes)) {
      return Status::ResourceExhausted("restore target is out of memory");
    }
    base_ = img->base;
    sealed_ = img->sealed;
    data_bytes_ = img->data_bytes;
    elements_ = img->elements;
    element_bytes_ = img->element_bytes;
    return Status::Ok();
  }

 private:
  struct VectorImage {
    uint64_t base;
    bool sealed;
    int64_t data_bytes;
    std::vector<T> elements;
    std::vector<int64_t> element_bytes;
    int64_t heap_bytes;
  };

  // Wire size of a logged control record (seal).
  static constexpr int64_t kControlRecordBytes = 16;

  // Mutation-log replay targets (run on the backup object; see
  // ProcletBase::RecordMutation). Tolerant of duplicate delivery.
  Status ApplyAppend(uint64_t index, const T& value, int64_t bytes) {
    if (index < base_) {
      return Status::Internal("append replay below shard base");
    }
    const size_t slot = static_cast<size_t>(index - base_);
    if (slot < elements_.size()) {
      return ApplySet(index, value, bytes);  // duplicate delivery
    }
    if (slot != elements_.size()) {
      return Status::Internal("append replay would leave a gap");
    }
    if (!TryChargeHeap(bytes)) {
      return Status::ResourceExhausted("backup machine out of memory");
    }
    data_bytes_ += bytes;
    element_bytes_.push_back(bytes);
    elements_.push_back(value);
    return Status::Ok();
  }

  Status ApplySet(uint64_t index, const T& value, int64_t bytes) {
    if (index < base_ ||
        index - base_ >= static_cast<uint64_t>(elements_.size())) {
      return Status::Internal("set replay outside shard range");
    }
    const size_t slot = static_cast<size_t>(index - base_);
    const int64_t delta = bytes - element_bytes_[slot];
    if (delta > 0 && !TryChargeHeap(delta)) {
      return Status::ResourceExhausted("backup machine out of memory");
    }
    if (delta < 0) {
      ReleaseHeap(-delta);
    }
    data_bytes_ += delta;
    element_bytes_[slot] = bytes;
    elements_[slot] = value;
    return Status::Ok();
  }

  uint64_t base_;
  bool sealed_ = false;
  int64_t data_bytes_ = 0;
  std::vector<T> elements_;
  std::vector<int64_t> element_bytes_;
};

template <typename T>
class ShardedVector : public ShardedHandle {
 public:
  using Shard = VectorShardProclet<T>;
  using Options = ShardedOptions;

  ShardedVector() = default;

  static Task<Result<ShardedVector>> Create(Ctx ctx, Options options = Options{}) {
    PlacementRequest index_req;
    index_req.heap_bytes = options.shard_base_bytes;
    auto create_index = ctx.rt->Create<ShardIndexProclet>(ctx, index_req);
    Result<Ref<ShardIndexProclet>> index = co_await std::move(create_index);
    if (!index.ok()) {
      co_return index.status();
    }
    ShardedVector vec;
    vec.index_ = *index;
    vec.router_ = ShardRouter(*index);
    vec.options_ = options;
    Status protected_index =
        co_await vec.template ProtectNew<ShardIndexProclet>(ctx, index->id());
    if (!protected_index.ok()) {
      co_return protected_index;
    }
    // First tail shard covering [0, inf).
    Status grown = co_await vec.AddTail(ctx, 0);
    if (!grown.ok()) {
      co_return grown;
    }
    co_return vec;
  }

  // Appends an element; returns its index.
  Task<Result<uint64_t>> PushBack(Ctx ctx, T value) {
    const int64_t request_bytes = WireSizeOf(value);
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      Result<ShardInfo> tail = co_await RouteTail(ctx);
      if (!tail.ok()) {
        co_return tail.status();
      }
      Ref<Shard> shard(ctx.rt, tail->proclet);
      using AppendResult = typename Shard::AppendResult;
      // Named task: see the GCC 12 note in sim/task.h.
      auto call = shard.Call(
          ctx,
          [value](Shard& s) mutable -> Task<Result<AppendResult>> {
            co_return s.Append(std::move(value));
          },
          request_bytes);
      std::optional<Result<AppendResult>> appended;
      bool shard_lost = false;
      try {
        appended.emplace(co_await std::move(call));
      } catch (const ProcletGoneError&) {
        router_.Invalidate();
        continue;
      } catch (const ProcletLostError&) {
        router_.Invalidate();
        shard_lost = true;  // co_await is illegal in a handler; stall below
      }
      if (shard_lost) {
        const bool restored = co_await AwaitShardRestore(ctx, tail->proclet);
        if (!restored) {
          co_return Status::DataLoss(LostShardMessage(*tail));
        }
        continue;
      }
      if (!appended->ok()) {
        if (appended->status().code() == StatusCode::kFailedPrecondition) {
          // Tail sealed under us: someone is growing; refresh and retry.
          (void)co_await RefreshSafe(ctx);
          continue;
        }
        co_return appended->status();
      }
      if ((*appended)->shard_bytes >= options_.max_shard_bytes) {
        Status grown = co_await GrowTail(ctx, *tail);
        if (!grown.ok() && grown.code() != StatusCode::kFailedPrecondition) {
          co_return grown;
        }
      }
      co_return (*appended)->index;
    }
    co_return Status::Aborted("too many append retries");
  }

  Task<Result<T>> Get(Ctx ctx, uint64_t index) {
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      Result<ShardInfo> info = co_await RouteSafe(ctx, index);
      if (!info.ok()) {
        co_return Status::OutOfRange("index beyond vector");
      }
      Ref<Shard> shard(ctx.rt, info->proclet);
      auto call = shard.Call(ctx, [index](Shard& s) -> Task<Result<T>> {
        co_return s.Get(index);
      });
      std::optional<Result<T>> value;
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
        if (info->end == UINT64_MAX) {
          // The tail said out-of-range: the index really is past the end.
          co_return value->status();
        }
        router_.Invalidate();  // stale route after a split/merge
        continue;
      }
      co_return std::move(*value);
    }
    co_return Status::Aborted("too many read retries");
  }

  Task<Status> Set(Ctx ctx, uint64_t index, T value) {
    const int64_t request_bytes = WireSizeOf(value);
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      Result<ShardInfo> info = co_await RouteSafe(ctx, index);
      if (!info.ok()) {
        co_return Status::OutOfRange("index beyond vector");
      }
      Ref<Shard> shard(ctx.rt, info->proclet);
      auto call = shard.Call(
          ctx,
          [index, value](Shard& s) mutable -> Task<Status> {
            co_return s.Set(index, std::move(value));
          },
          request_bytes);
      Status status = Status::Internal("unset");
      bool shard_lost = false;
      try {
        status = co_await std::move(call);
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
      if (status.code() == StatusCode::kOutOfRange) {
        if (info->end == UINT64_MAX) {
          co_return status;  // genuinely past the end
        }
        router_.Invalidate();
        continue;
      }
      co_return status;
    }
    co_return Status::Aborted("too many write retries");
  }

  // Batched cross-shard read of [begin, begin+count) (clamped at the end of
  // the vector). The unit of remote transfer is a whole per-shard range — the
  // batching that makes remote iteration cheap.
  Task<Result<std::vector<T>>> GetRange(Ctx ctx, uint64_t begin, uint64_t count) {
    std::vector<T> out;
    uint64_t cursor = begin;
    int stale_retries = 0;
    while (count > 0) {
      Result<ShardInfo> info = co_await RouteSafe(ctx, cursor);
      if (!info.ok()) {
        break;  // past the end
      }
      Ref<Shard> shard(ctx.rt, info->proclet);
      const uint64_t ask = count;
      auto call = shard.Call(
          ctx, [cursor, ask](Shard& s) -> Task<Result<std::vector<T>>> {
            co_return s.GetRange(cursor, ask);
          });
      std::optional<Result<std::vector<T>>> chunk;
      bool shard_lost = false;
      try {
        chunk.emplace(co_await std::move(call));
      } catch (const ProcletGoneError&) {
        router_.Invalidate();
        if (++stale_retries > kMaxAttempts) {
          co_return Status::Aborted("too many range-read retries");
        }
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
        if (++stale_retries > kMaxAttempts) {
          co_return Status::Aborted("too many range-read retries");
        }
        continue;
      }
      if (!chunk->ok()) {
        if (chunk->status().code() == StatusCode::kOutOfRange) {
          if (info->end == UINT64_MAX) {
            break;  // reading past the live end of the vector
          }
          router_.Invalidate();
          if (++stale_retries > kMaxAttempts) {
            co_return Status::Aborted("too many range-read retries");
          }
          continue;
        }
        co_return chunk->status();
      }
      std::vector<T>& data = **chunk;
      if (data.empty()) {
        break;  // tail shard has no elements at cursor yet
      }
      cursor += data.size();
      count -= static_cast<uint64_t>(data.size());
      for (auto& e : data) {
        out.push_back(std::move(e));
      }
    }
    co_return out;
  }

  // Total element count (one index round trip).
  Task<Result<uint64_t>> Size(Ctx ctx) {
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      Status refreshed = co_await RefreshSafe(ctx);
      if (!refreshed.ok()) {
        co_return refreshed;
      }
      // The index's counts are advisory; ask the tail shard for its live
      // count.
      uint64_t total = 0;
      bool retry = false;
      for (const ShardInfo& shard : router_.cached_shards()) {
        if (shard.end != UINT64_MAX) {
          total = std::max(total, shard.end);
          continue;
        }
        Ref<Shard> tail(ctx.rt, shard.proclet);
        auto call = tail.Call(ctx, [](Shard& s) -> Task<uint64_t> {
          co_return s.end_index();
        });
        uint64_t end_index = 0;
        bool shard_lost = false;
        try {
          end_index = co_await std::move(call);
        } catch (const ProcletLostError&) {
          router_.Invalidate();
          shard_lost = true;
        }
        if (shard_lost) {
          const bool restored = co_await AwaitShardRestore(ctx, shard.proclet);
          if (!restored) {
            co_return Status::DataLoss(LostShardMessage(shard));
          }
          retry = true;
          break;
        }
        total = std::max(total, end_index);
      }
      if (retry) {
        continue;
      }
      co_return total;
    }
    co_return Status::Aborted("too many size retries");
  }

 private:
  // Unrecoverable loss: report the exact index range that died with the
  // machine instead of retrying forever.
  static std::string LostShardMessage(const ShardInfo& info) {
    const std::string end = info.end == UINT64_MAX ? std::string("end")
                                                   : std::to_string(info.end);
    return "elements [" + std::to_string(info.begin) + ", " + end +
           ") lost to a machine failure";
  }

  // The tail is the shard whose range extends to UINT64_MAX. Between a
  // concurrent grower's seal and its new-tail insertion the index briefly
  // has no tail; wait out that window.
  Task<Result<ShardInfo>> RouteTail(Ctx ctx) {
    if (router_.cached_shards().empty()) {
      Status refreshed = co_await RefreshSafe(ctx);
      if (!refreshed.ok()) {
        co_return refreshed;
      }
    }
    for (int i = 0; i < kMaxAttempts; ++i) {
      for (const ShardInfo& shard : router_.cached_shards()) {
        if (shard.end == UINT64_MAX) {
          co_return shard;
        }
      }
      co_await ctx.rt->sim().Sleep(Duration::Micros(20));
      Status refreshed = co_await RefreshSafe(ctx);
      if (!refreshed.ok()) {
        co_return refreshed;
      }
    }
    co_return Status::Internal("sharded vector has no tail shard");
  }

  // Seals `tail` and installs a fresh tail after it. Concurrent growers are
  // resolved by the index: losers see FailedPrecondition and retry.
  Task<Status> GrowTail(Ctx ctx, ShardInfo tail) {
    Ref<Shard> shard(ctx.rt, tail.proclet);
    auto seal = shard.Call(ctx, [](Shard& s) -> Task<int64_t> { co_return s.Seal(); });
    int64_t sealed_count = 0;
    bool tail_lost = false;
    try {
      sealed_count = co_await std::move(seal);
    } catch (const ProcletGoneError&) {
      router_.Invalidate();
      co_return Status::FailedPrecondition("tail vanished during grow");
    } catch (const ProcletLostError&) {
      router_.Invalidate();
      tail_lost = true;
    }
    if (tail_lost) {
      const bool restored = co_await AwaitShardRestore(ctx, tail.proclet);
      if (!restored) {
        co_return Status::DataLoss(LostShardMessage(tail));
      }
      // FailedPrecondition is the "retry the append" signal to PushBack.
      co_return Status::FailedPrecondition("tail restored during grow; retry");
    }
    const uint64_t boundary = tail.begin + static_cast<uint64_t>(sealed_count);

    // Shrink the sealed tail's range in the index.
    ShardInfo sealed_info = tail;
    sealed_info.end = boundary;
    sealed_info.count = sealed_count;
    auto update = index_.Call(ctx, [sealed_info](ShardIndexProclet& p) -> Task<Status> {
      co_return p.UpdateShard(sealed_info);
    });
    Status updated = Status::Internal("unset");
    bool index_lost = false;
    try {
      updated = co_await std::move(update);
    } catch (const ProcletLostError&) {
      router_.Invalidate();
      index_lost = true;
    }
    if (index_lost) {
      const bool restored = co_await AwaitShardRestore(ctx, index_.id());
      if (!restored) {
        co_return Status::DataLoss("shard index lost to a machine failure");
      }
      co_return Status::FailedPrecondition("index restored during grow; retry");
    }
    if (!updated.ok()) {
      // Another appender already grew the tail.
      (void)co_await RefreshSafe(ctx);
      co_return Status::FailedPrecondition("tail already grown");
    }
    Status added = co_await AddTail(ctx, boundary);
    (void)co_await RefreshSafe(ctx);
    co_return added;
  }

  Task<Status> AddTail(Ctx ctx, uint64_t base) {
    PlacementRequest req;
    req.heap_bytes = options_.shard_base_bytes;
    auto create = ctx.rt->Create<Shard>(ctx, req, base);
    Result<Ref<Shard>> shard = co_await std::move(create);
    if (!shard.ok()) {
      co_return shard.status();
    }
    ShardInfo info;
    info.proclet = shard->id();
    info.begin = base;
    info.end = UINT64_MAX;
    auto add = index_.Call(ctx, [info](ShardIndexProclet& p) -> Task<Status> {
      co_return p.AddShard(info);
    });
    Status added = Status::Internal("unset");
    bool index_lost = false;
    try {
      added = co_await std::move(add);
    } catch (const ProcletLostError&) {
      router_.Invalidate();
      index_lost = true;
    }
    if (index_lost) {
      const bool restored = co_await AwaitShardRestore(ctx, index_.id());
      auto destroy = ctx.rt->Destroy(ctx, shard->id());
      (void)co_await std::move(destroy);
      if (!restored) {
        co_return Status::DataLoss("shard index lost to a machine failure");
      }
      co_return Status::FailedPrecondition("index restored mid-grow; retry");
    }
    if (!added.ok()) {
      // Lost a race: drop the orphan shard.
      auto destroy = ctx.rt->Destroy(ctx, shard->id());
      (void)co_await std::move(destroy);
      co_return Status::FailedPrecondition("another tail was added first");
    }
    co_return co_await ProtectNew<Shard>(ctx, shard->id());
  }
};

}  // namespace quicksand

#endif  // QUICKSAND_DS_SHARDED_VECTOR_H_
