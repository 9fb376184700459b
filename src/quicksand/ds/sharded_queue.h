// ShardedQueue<T>: a FIFO queue whose backlog lives in granular memory
// proclets (§3.2, §4).
//
// The queue is a chain of *segment* proclets ordered by sequence number.
// Producers append to the newest (tail) segment; when the tail exceeds
// max_segment_bytes the producer seals it and links a fresh one — so a burst
// of production materializes as additional memory proclets that the
// scheduler can place wherever memory is free ("the queue can absorb bursts
// in producer output by storing it in memory proclets that can split and
// migrate", §4). Consumers pop from the oldest segment; a drained, sealed
// segment is unlinked and destroyed. A blocking pop parks inside the oldest
// segment until it holds an item or is sealed, so a waiting consumer costs
// no messages and no events.

#ifndef QUICKSAND_DS_SHARDED_QUEUE_H_
#define QUICKSAND_DS_SHARDED_QUEUE_H_

#include <deque>
#include <optional>
#include <vector>

#include "quicksand/common/bytes.h"
#include "quicksand/common/status.h"
#include "quicksand/common/wire.h"
#include "quicksand/runtime/runtime.h"
#include "quicksand/sharding/shard_index.h"
#include "quicksand/sim/wait_queue.h"

namespace quicksand {

template <typename T>
class QueueSegmentProclet : public ProcletBase {
 public:
  static constexpr ProcletKind kKind = ProcletKind::kMemory;

  struct PushResult {
    int64_t segment_bytes;
    int64_t segment_count;
  };

  struct PopResult {
    std::vector<T> items;
    bool drained;  // sealed and now empty: consumer should unlink it

    int64_t WireBytes() const { return WireSizeOf(items) + 1; }
  };

  QueueSegmentProclet(const ProcletInit& init, uint64_t sequence)
      : ProcletBase(init), sequence_(sequence), waiters_(*init.sim) {}

  uint64_t sequence() const { return sequence_; }
  bool sealed() const { return sealed_; }
  int64_t count() const { return static_cast<int64_t>(items_.size()); }
  int64_t data_bytes() const { return data_bytes_; }

  Result<PushResult> Push(T value) {
    if (sealed_) {
      return Status::FailedPrecondition("segment is sealed");
    }
    const int64_t bytes = WireSizeOf(value);
    if (!TryChargeHeap(bytes)) {
      return Status::ResourceExhausted("host machine out of memory");
    }
    data_bytes_ += bytes;
    item_bytes_.push_back(bytes);
    items_.push_back(std::move(value));
    waiters_.WakeOne();
    return PushResult{data_bytes_, count()};
  }

  void Seal() {
    sealed_ = true;
    waiters_.WakeAll();
  }

  // Removes up to `max_items` from the front. With `wait`, the call first
  // parks until the segment holds an item or is sealed; a push wakes the
  // oldest parked call. Closing the gate or losing the machine releases
  // every parked call empty and not drained, and its caller re-issues it.
  Task<PopResult> Pop(int64_t max_items, bool wait) {
    while (wait && items_.empty() && !sealed_ && !gate_closed() && !lost()) {
      co_await waiters_.Park();
    }
    PopResult result;
    while (max_items-- > 0 && !items_.empty()) {
      const int64_t bytes = item_bytes_.front();
      item_bytes_.pop_front();
      ReleaseHeap(bytes);
      data_bytes_ -= bytes;
      result.items.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    result.drained = sealed_ && items_.empty();
    co_return result;
  }

 protected:
  void OnGateClose() override { waiters_.WakeAll(); }
  void OnLost() override { waiters_.WakeAll(); }

 private:
  uint64_t sequence_;
  bool sealed_ = false;
  int64_t data_bytes_ = 0;
  std::deque<T> items_;
  std::deque<int64_t> item_bytes_;
  // Blocking pops parked until an item arrives or the segment is sealed.
  WaitQueue waiters_;
};

template <typename T>
class ShardedQueue {
 public:
  using Segment = QueueSegmentProclet<T>;

  struct Options {
    int64_t max_segment_bytes = 4 * kMiB;
    int64_t segment_base_bytes = 4096;
  };

  ShardedQueue() = default;

  static Task<Result<ShardedQueue>> Create(Ctx ctx, Options options = Options{}) {
    PlacementRequest index_req;
    index_req.heap_bytes = options.segment_base_bytes;
    auto create_index = ctx.rt->Create<ShardIndexProclet>(ctx, index_req);
    Result<Ref<ShardIndexProclet>> index = co_await std::move(create_index);
    if (!index.ok()) {
      co_return index.status();
    }
    ShardedQueue queue;
    queue.index_ = *index;
    queue.router_ = ShardRouter(*index);
    queue.options_ = options;
    Status added = co_await queue.AddSegment(ctx, 0);
    if (!added.ok()) {
      co_return added;
    }
    co_return queue;
  }

  Ref<ShardIndexProclet> index() const { return index_; }
  ShardRouter& router() { return router_; }

  Task<Status> Push(Ctx ctx, T value) {
    const int64_t request_bytes = WireSizeOf(value);
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      Result<ShardInfo> tail = co_await RouteEnd(ctx, /*tail=*/true);
      if (!tail.ok()) {
        co_return tail.status();
      }
      Ref<Segment> segment(ctx.rt, tail->proclet);
      using PushResult = typename Segment::PushResult;
      auto call = segment.Call(
          ctx,
          [value](Segment& s) mutable -> Task<Result<PushResult>> {
            co_return s.Push(std::move(value));
          },
          request_bytes);
      std::optional<Result<PushResult>> pushed;
      try {
        pushed.emplace(co_await std::move(call));
      } catch (const ProcletGoneError&) {
        router_.Invalidate();
        continue;
      }
      if (!pushed->ok()) {
        if (pushed->status().code() == StatusCode::kFailedPrecondition) {
          // Sealed under us; wait out a concurrent grower's segment insert.
          co_await ctx.rt->sim().Sleep(Duration::Micros(10));
          co_await router_.Refresh(ctx);
          continue;
        }
        co_return pushed->status();
      }
      if ((*pushed)->segment_bytes >= options_.max_segment_bytes) {
        Status grown = co_await GrowTail(ctx, *tail);
        if (!grown.ok() && grown.code() != StatusCode::kFailedPrecondition) {
          co_return grown;
        }
      }
      co_return Status::Ok();
    }
    co_return Status::Aborted("too many push retries");
  }

  // Pops up to `max_items` items without waiting; returns an empty vector
  // when the queue is empty.
  Task<Result<std::vector<T>>> TryPopBatch(Ctx ctx, int64_t max_items) {
    return PopLoop(ctx, max_items, /*wait=*/false);
  }

  // Pops between 1 and `max_items` items, waiting for the first: the request
  // parks inside the oldest segment until it holds an item or is sealed.
  Task<Result<std::vector<T>>> PopBatch(Ctx ctx, int64_t max_items) {
    return PopLoop(ctx, max_items, /*wait=*/true);
  }

  Task<Result<std::optional<T>>> TryPop(Ctx ctx) {
    auto pop = TryPopBatch(ctx, 1);
    Result<std::vector<T>> batch = co_await std::move(pop);
    if (!batch.ok()) {
      co_return batch.status();
    }
    if (batch->empty()) {
      co_return std::optional<T>();
    }
    co_return std::optional<T>(std::move(batch->front()));
  }

  // Approximate backlog (index counts are refreshed live from segments).
  Task<Result<int64_t>> Size(Ctx ctx) {
    co_await router_.Refresh(ctx);
    int64_t total = 0;
    // Held across the awaits: a refresh on this handle replaces the router's.
    const ShardRouter::Snapshot segments = router_.snapshot();
    for (const ShardInfo& info : *segments) {
      Ref<Segment> segment(ctx.rt, info.proclet);
      auto call = segment.Call(ctx, [](Segment& s) -> Task<int64_t> {
        co_return s.count();
      });
      try {
        total += co_await std::move(call);
      } catch (const ProcletGoneError&) {
        // Concurrently drained; skip.
      }
    }
    co_return total;
  }

 private:
  static constexpr int kMaxAttempts = 16;

  // The one pop loop: route to the oldest segment, pop there (parking first
  // when `wait`), unlink the segment if that drained it, retry. A waiting
  // call that comes back empty was released by a gate close (a migration
  // or destroy of the segment) and is re-issued.
  Task<Result<std::vector<T>>> PopLoop(Ctx ctx, int64_t max_items, bool wait) {
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      auto route = RouteEnd(ctx, /*tail=*/false);
      Result<ShardInfo> head = co_await std::move(route);
      if (!head.ok()) {
        co_return head.status();
      }
      Ref<Segment> segment(ctx.rt, head->proclet);
      auto call = segment.Call(ctx, [max_items, wait](Segment& s) {
        return s.Pop(max_items, wait);
      });
      std::optional<typename Segment::PopResult> popped;
      try {
        popped.emplace(co_await std::move(call));
      } catch (const ProcletGoneError&) {
        router_.Invalidate();
        continue;
      }
      if (popped->drained) {
        auto unlink = UnlinkSegment(ctx, *head);
        co_await std::move(unlink);
      }
      if (popped->items.empty() && (popped->drained || wait)) {
        continue;  // the next segment, or the released wait again
      }
      co_return std::move(popped->items);
    }
    co_return Status::Aborted("too many pop retries");
  }

  // tail=true: highest sequence; tail=false: lowest.
  Task<Result<ShardInfo>> RouteEnd(Ctx ctx, bool tail) {
    for (int i = 0; i < 2; ++i) {
      if (router_.cached_shards().empty() || i > 0) {
        co_await router_.Refresh(ctx);
      }
      const std::vector<ShardInfo>& shards = router_.cached_shards();
      if (!shards.empty()) {
        // Shards are keyed by sequence; snapshot is ordered by begin.
        co_return tail ? shards.back() : shards.front();
      }
    }
    co_return Status::Internal("queue has no segments");
  }

  // Links the successor before sealing `tail`, so a sealed segment always
  // has one: the consumers its seal wakes drain and unlink it and move on,
  // and never find the queue without segments.
  Task<Status> GrowTail(Ctx ctx, ShardInfo tail) {
    auto add = AddSegment(ctx, tail.begin + 1);
    const Status added = co_await std::move(add);
    if (!added.ok()) {
      auto refresh = router_.Refresh(ctx);
      co_await std::move(refresh);
      co_return added;  // FailedPrecondition: another grower linked it first
    }
    Ref<Segment> segment(ctx.rt, tail.proclet);
    auto seal = segment.Call(ctx, [](Segment& s) -> Task<bool> {
      s.Seal();
      co_return true;
    });
    (void)co_await std::move(seal);  // linked and unsealed, so not destroyed
    auto refresh = router_.Refresh(ctx);
    co_await std::move(refresh);
    co_return Status::Ok();
  }

  Task<Status> AddSegment(Ctx ctx, uint64_t sequence) {
    PlacementRequest req;
    req.heap_bytes = options_.segment_base_bytes;
    auto create = ctx.rt->Create<Segment>(ctx, req, sequence);
    Result<Ref<Segment>> segment = co_await std::move(create);
    if (!segment.ok()) {
      co_return segment.status();
    }
    ShardInfo info;
    info.proclet = segment->id();
    info.begin = sequence;
    info.end = sequence + 1;
    // Segments only append. A grower whose tail went stale while its link
    // request was in flight must not link a sequence below the live tail:
    // that segment would become the head, and consumers would wait there
    // while every push lands behind it.
    auto add = index_.Call(ctx, [info](ShardIndexProclet& p) -> Task<Status> {
      const std::vector<ShardInfo> shards = p.Snapshot().second;
      if (!shards.empty() && shards.back().begin >= info.begin) {
        co_return Status::FailedPrecondition("a later segment is linked");
      }
      co_return p.AddShard(info);
    });
    Status added = co_await std::move(add);
    if (!added.ok()) {
      auto destroy = ctx.rt->Destroy(ctx, segment->id());
      (void)co_await std::move(destroy);
      co_return Status::FailedPrecondition("segment sequence already linked");
    }
    co_return Status::Ok();
  }

  Task<> UnlinkSegment(Ctx ctx, ShardInfo head) {
    const ProcletId victim = head.proclet;
    auto remove = index_.Call(ctx, [victim](ShardIndexProclet& p) -> Task<Status> {
      co_return p.RemoveShard(victim);
    });
    Status removed = co_await std::move(remove);
    router_.Invalidate();
    if (removed.ok()) {
      // We won the unlink race; we also reclaim the proclet.
      auto destroy = ctx.rt->Destroy(ctx, victim);
      (void)co_await std::move(destroy);
    }
  }

  Ref<ShardIndexProclet> index_;
  ShardRouter router_;
  Options options_;
};

}  // namespace quicksand

#endif  // QUICKSAND_DS_SHARDED_QUEUE_H_
