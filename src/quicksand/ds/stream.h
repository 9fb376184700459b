// VectorStream<T>: sequential iteration over a ShardedVector with
// prefetching (§3.2: "iterators provide rich semantic hints, enabling
// effective data prefetching to reduce the cost of accessing remote
// shards").
//
// The stream reads the vector in chunks. While the consumer processes the
// current chunk, a background fiber fetches the next one, overlapping remote
// transfer with computation — this is what makes "preprocessing images from
// remote memory proclets as fast as preprocessing local images" (§4) in
// Fig. 2's imbalanced configurations.

#ifndef QUICKSAND_DS_STREAM_H_
#define QUICKSAND_DS_STREAM_H_

#include <memory>
#include <optional>
#include <vector>

#include "quicksand/ds/sharded_vector.h"
#include "quicksand/sim/sync.h"

namespace quicksand {

template <typename T>
class VectorStream {
 public:
  struct Stats {
    int64_t chunks_fetched = 0;
    int64_t prefetch_ready = 0;   // chunk was already there when needed
    int64_t prefetch_waited = 0;  // had to wait on an in-flight prefetch
  };

  // Streams elements with indices in [begin, end). `chunk_elems` sets the
  // transfer granularity; prefetch=false degrades to synchronous fetching
  // (the ablation baseline).
  VectorStream(ShardedVector<T> vec, uint64_t begin, uint64_t end,
               uint64_t chunk_elems = 64, bool prefetch = true)
      : vec_(std::move(vec)),
        next_fetch_(begin),
        limit_(end),
        chunk_elems_(chunk_elems),
        prefetch_(prefetch) {
    QS_CHECK(chunk_elems_ > 0);
  }

  // Next element, or nullopt at the end of the range (or of the vector, or
  // at a failed read: see status()).
  Task<std::optional<T>> Next(Ctx ctx) {
    while (cursor_ == current_.size()) {
      if (exhausted_) {
        co_return std::nullopt;
      }
      co_await LoadChunk(ctx);
    }
    T value = std::move(current_[cursor_++]);
    co_return std::optional<T>(std::move(value));
  }

  const Stats& stats() const { return stats_; }
  // The read that ended the stream early (e.g. DataLoss for a lost shard);
  // OK while every read succeeded.
  const Status& status() const { return status_; }

 private:
  struct Slot {
    explicit Slot(Simulator& sim) : ready(sim) {}
    std::vector<T> data;
    Status status;
    uint64_t ask = 0;
    SimEvent ready;
  };

  static Task<> FetchInto(ShardedVector<T> vec, Ctx ctx, uint64_t begin,
                          uint64_t count, std::shared_ptr<Slot> slot) {
    auto get = vec.GetRange(ctx, begin, count);
    Result<std::vector<T>> data = co_await std::move(get);
    if (data.ok()) {
      slot->data = std::move(*data);
    } else {
      slot->status = data.status();
    }
    slot->ready.Set();
  }

  Task<> LoadChunk(Ctx ctx) {
    std::vector<T> chunk;
    if (pending_ != nullptr) {
      if (!pending_->ready.is_set()) {
        ++stats_.prefetch_waited;
        co_await pending_->ready.Wait();
      } else {
        ++stats_.prefetch_ready;
      }
      chunk = std::move(pending_->data);
      if (chunk.size() < pending_->ask) {
        exhausted_ = true;  // the vector ended inside this chunk, or a read failed
      }
      if (!pending_->status.ok()) {
        status_ = pending_->status;
      }
      pending_.reset();
    } else {
      const uint64_t ask =
          std::min<uint64_t>(chunk_elems_, limit_ - next_fetch_);
      if (ask == 0) {
        exhausted_ = true;
        co_return;
      }
      auto get = vec_.GetRange(ctx, next_fetch_, ask);
      Result<std::vector<T>> data = co_await std::move(get);
      if (!data.ok()) {
        status_ = data.status();
        exhausted_ = true;
        co_return;
      }
      chunk = std::move(*data);
      next_fetch_ += chunk.size();
    }
    ++stats_.chunks_fetched;
    if (chunk.empty()) {
      exhausted_ = true;
      co_return;
    }
    current_ = std::move(chunk);
    cursor_ = 0;
    // Kick off the next prefetch while the consumer chews on this chunk.
    if (prefetch_ && !exhausted_ && next_fetch_ < limit_) {
      const uint64_t ask = std::min<uint64_t>(chunk_elems_, limit_ - next_fetch_);
      pending_ = std::make_shared<Slot>(ctx.rt->sim());
      pending_->ask = ask;
      ctx.rt->sim().Spawn(FetchInto(vec_, ctx, next_fetch_, ask, pending_),
                          "vector_prefetch");
      next_fetch_ += ask;
    }
  }

  ShardedVector<T> vec_;
  uint64_t next_fetch_;
  uint64_t limit_;
  uint64_t chunk_elems_;
  bool prefetch_;
  bool exhausted_ = false;
  std::vector<T> current_;
  size_t cursor_ = 0;
  std::shared_ptr<Slot> pending_;
  Status status_;
  Stats stats_;
};

}  // namespace quicksand

#endif  // QUICKSAND_DS_STREAM_H_
