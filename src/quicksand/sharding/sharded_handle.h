// ShardedHandle: the client-side state ShardedVector and ShardedMap share —
// the shard index proclet, the cached router over it, the options — and the
// durability-aware helpers both use to reach their shards (§3.2).

#ifndef QUICKSAND_SHARDING_SHARDED_HANDLE_H_
#define QUICKSAND_SHARDING_SHARDED_HANDLE_H_

#include <cstdint>
#include <optional>
#include <utility>

#include "quicksand/common/bytes.h"
#include "quicksand/common/status.h"
#include "quicksand/durability/checkpoint_manager.h"
#include "quicksand/durability/replication.h"
#include "quicksand/runtime/runtime.h"
#include "quicksand/sharding/shard_index.h"

namespace quicksand {

struct ShardedOptions {
  // Shard size cap, derived from the target migration latency (§3.3).
  int64_t max_shard_bytes = 16 * kMiB;
  // Initial heap charge per shard proclet (metadata).
  int64_t shard_base_bytes = 4096;
  // Durability (optional; not owned). When replication is set every new
  // shard and the index get a primary-backup replica; otherwise, when
  // checkpoints is set, they get periodic checkpoints. Either way a lost
  // shard becomes a bounded stall (restore_stall) while the
  // RecoveryCoordinator restores it, instead of an immediate DataLoss.
  ReplicationManager* replication = nullptr;
  CheckpointManager* checkpoints = nullptr;
  Duration restore_stall = Duration::Millis(50);
};

class ShardedHandle {
 public:
  Ref<ShardIndexProclet> index() const { return index_; }
  ShardRouter& router() { return router_; }
  const ShardedOptions& options() const { return options_; }

 protected:
  static constexpr int kMaxAttempts = 16;

  // Registers a freshly created proclet with the configured durability
  // service (replication preferred over checkpoints when both are set).
  template <typename P>
  Task<Status> ProtectNew(Ctx ctx, ProcletId id) {
    if (options_.replication != nullptr) {
      co_return co_await options_.replication->template ReplicateAs<P>(ctx, id);
    }
    if (options_.checkpoints != nullptr) {
      co_return co_await options_.checkpoints->template ProtectAs<P>(ctx, id);
    }
    co_return Status::Ok();
  }

  // Bounded stall while the recovery subsystem restores a lost proclet;
  // false when recovery is off or the deadline passes (the caller reports
  // DataLoss exactly as before the durability subsystem existed).
  Task<bool> AwaitShardRestore(Ctx ctx, ProcletId id) {
    if (!ctx.rt->recovery_enabled()) {
      co_return false;
    }
    co_return co_await ctx.rt->AwaitRestore(id, options_.restore_stall);
  }

  // Router refresh that survives a lost index proclet: stalls for the
  // restore, then re-pulls. DataLoss only when recovery cannot bring the
  // index back.
  Task<Status> RefreshSafe(Ctx ctx) {
    for (int i = 0; i < kMaxAttempts; ++i) {
      bool index_lost = false;
      try {
        co_await router_.Refresh(ctx);
      } catch (const ProcletGoneError&) {
        co_return Status::NotFound("shard index destroyed");
      } catch (const ProcletLostError&) {
        router_.Invalidate();
        index_lost = true;
      }
      if (!index_lost) {
        co_return Status::Ok();
      }
      const bool restored = co_await AwaitShardRestore(ctx, index_.id());
      if (!restored) {
        co_return Status::DataLoss("shard index lost to a machine failure");
      }
    }
    co_return Status::Aborted("too many index refresh retries");
  }

  // Route through the cache with the same index-loss handling.
  Task<Result<ShardInfo>> RouteSafe(Ctx ctx, uint64_t key) {
    for (int i = 0; i < kMaxAttempts; ++i) {
      std::optional<Result<ShardInfo>> routed;
      bool index_lost = false;
      try {
        routed.emplace(co_await router_.Route(ctx, key));
      } catch (const ProcletGoneError&) {
        co_return Status::NotFound("shard index destroyed");
      } catch (const ProcletLostError&) {
        router_.Invalidate();
        index_lost = true;
      }
      if (!index_lost) {
        co_return std::move(*routed);
      }
      const bool restored = co_await AwaitShardRestore(ctx, index_.id());
      if (!restored) {
        co_return Status::DataLoss("shard index lost to a machine failure");
      }
    }
    co_return Status::Aborted("too many route retries");
  }

  Ref<ShardIndexProclet> index_;
  ShardRouter router_;
  ShardedOptions options_;
};

}  // namespace quicksand

#endif  // QUICKSAND_SHARDING_SHARDED_HANDLE_H_
