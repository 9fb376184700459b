// Split/merge maintenance for sharded data structures (§3.3).
//
// "Quicksand enforces a maximum size based on a target migration latency. If
// a shard becomes oversized, Quicksand splits it into two shards by invoking
// a data-structure-specific split function. [...] Quicksand can respond by
// invoking a data-structure-specific merge function to combine the adjacent
// shards into a single memory proclet."
//
// SplitShard/MergeShards drive the crash-safe reshape protocol
// (sharding/reshape.h) for ShardedVector and ShardedMap: each shard picks its
// own split point, the new shard goes wherever memory is free, and the
// shard index proclet records the new layout. MaintainShards is the periodic
// pass the AdaptiveController runs. Clients that race a reshape see
// kOutOfRange and refresh their routers.

#ifndef QUICKSAND_ADAPT_SHARD_MAINTENANCE_H_
#define QUICKSAND_ADAPT_SHARD_MAINTENANCE_H_

#include "quicksand/ds/sharded_map.h"
#include "quicksand/ds/sharded_vector.h"
#include "quicksand/sharding/reshape.h"

namespace quicksand {

struct ShardMaintenanceStats : ReshapeStats {
  int64_t splits = 0;
  int64_t merges = 0;
  int64_t failed = 0;
};

// Applies `edit` to the structure's shard index; when it succeeds, records
// the reshape as trace instant `op` on `shard` (hosted on `where`).
template <typename DS, typename Edit>
Task<Status> PublishReshape(Ctx ctx, DS ds, Edit edit, TraceOp op,
                            MachineId where, ProcletId shard,
                            int64_t moved_bytes) {
  auto update = ds.index().Call(ctx, std::move(edit));
  const Status status = co_await std::move(update);
  if (status.ok()) {
    if (Tracer* tracer = ctx.rt->tracer()) {
      tracer->Instant(ctx.trace, where, op, shard, moved_bytes);
    }
  }
  co_return status;
}

// Splits the shard `donor_info` describes (a ShardedVector's at its element
// midpoint, a ShardedMap's at its median projection).
template <typename DS>
Task<Status> SplitShard(Ctx ctx, DS ds, ShardInfo donor_info,
                        ReshapeStats* stats = nullptr) {
  using Shard = typename DS::Shard;
  PlacementRequest req;
  req.heap_bytes = ds.options().shard_base_bytes;
  auto split = ReshapeSplit<Shard>(
      ctx, donor_info.proclet,
      [](Shard& donor) { return donor.SplitPoint(); }, req,
      [ctx, ds, donor_info](Shard& donor, Shard& fresh, int64_t moved_bytes) {
        ShardInfo shrunk = donor_info;
        shrunk.end = fresh.range_begin();
        shrunk.count = donor.count();
        shrunk.bytes = donor.data_bytes();
        ShardInfo added;
        added.proclet = fresh.id();
        added.begin = fresh.range_begin();
        added.end = donor_info.end;
        added.count = fresh.count();
        added.bytes = fresh.data_bytes();
        return PublishReshape(
            ctx, ds,
            [shrunk, added](ShardIndexProclet& p) -> Task<Status> {
              Status s = p.UpdateShard(shrunk);
              if (s.ok()) {
                s = p.AddShard(added);
              }
              co_return s;
            },
            TraceOp::kSplit, donor.location(), donor_info.proclet,
            moved_bytes);
      },
      stats);
  co_return co_await std::move(split);
}

// Merges `right_info`'s shard into `left_info`'s (adjacent index entries).
template <typename DS>
Task<Status> MergeShards(Ctx ctx, DS ds, ShardInfo left_info,
                         ShardInfo right_info, ReshapeStats* stats = nullptr) {
  using Shard = typename DS::Shard;
  if (left_info.end != right_info.begin) {
    co_return Status::InvalidArgument("shards are not adjacent");
  }
  auto merge = ReshapeMerge<Shard>(
      ctx, left_info.proclet, right_info.proclet,
      [ctx, ds, left_info, right_info](Shard& left, int64_t moved_bytes) {
        ShardInfo widened = left_info;
        widened.end = right_info.end;
        widened.count = left.count();
        widened.bytes = left.data_bytes();
        const ProcletId dead = right_info.proclet;
        return PublishReshape(
            ctx, ds,
            [widened, dead](ShardIndexProclet& p) -> Task<Status> {
              Status s = p.RemoveShard(dead);
              if (s.ok()) {
                s = p.UpdateShard(widened);
              }
              co_return s;
            },
            TraceOp::kMerge, left.location(), left_info.proclet, moved_bytes);
      },
      stats);
  co_return co_await std::move(merge);
}

// A ShardedVector's growing tail is never merged away: appends would chase
// it onto its neighbor. Map shards never grow at one end.
template <typename Shard>
bool GrowingTail(const Shard& shard) {
  if constexpr (requires { shard.sealed(); }) {
    return !shard.sealed();
  } else {
    return false;
  }
}

// One maintenance pass over a ShardedVector or ShardedMap: split oversized
// shards, merge adjacent undersized ones.
template <typename DS>
Task<> MaintainShards(Ctx ctx, DS ds, int64_t max_bytes, int64_t min_bytes,
                      ShardMaintenanceStats* stats = nullptr) {
  using Shard = typename DS::Shard;
  Runtime& rt = *ctx.rt;
  co_await ds.router().Refresh(ctx);
  const ShardRouter::Snapshot snapshot = ds.router().snapshot();  // held across awaits
  const std::vector<ShardInfo>& shards = *snapshot;

  for (size_t i = 0; i < shards.size(); ++i) {
    auto* shard = rt.UnsafeGet<Shard>(shards[i].proclet);
    if (shard == nullptr || shard->gate_closed()) {
      continue;
    }
    // Durable shards are pinned (see ReshapeSplit); skip them up front.
    if (shard->durable()) {
      continue;
    }
    if (shard->data_bytes() > max_bytes && shard->count() >= 2) {
      auto split = SplitShard(ctx, ds, shards[i], stats);
      Status s = co_await std::move(split);
      if (stats != nullptr) {
        s.ok() ? ++stats->splits : ++stats->failed;
      }
      continue;
    }
    if (i + 1 < shards.size() && shards[i].end == shards[i + 1].begin) {
      auto* next = rt.UnsafeGet<Shard>(shards[i + 1].proclet);
      if (next != nullptr && !next->gate_closed() && !next->durable() &&
          !GrowingTail(*shard) && !GrowingTail(*next) &&
          shard->data_bytes() < min_bytes && next->data_bytes() < min_bytes &&
          shard->data_bytes() + next->data_bytes() <= max_bytes) {
        auto merge = MergeShards(ctx, ds, shards[i], shards[i + 1], stats);
        Status s = co_await std::move(merge);
        if (stats != nullptr) {
          s.ok() ? ++stats->merges : ++stats->failed;
        }
      }
    }
  }
}

}  // namespace quicksand

#endif  // QUICKSAND_ADAPT_SHARD_MAINTENANCE_H_
