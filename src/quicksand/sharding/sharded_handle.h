// ShardedHandle: the client-side state ShardedVector and ShardedMap share —
// the shard index proclet, the cached router over it, the options — and
// the one loss-aware call both make to reach a shard or the index (§3.2).
//
// CallShard is the only place the sharded data structures meet
// ProcletGoneError and ProcletLostError. Each op routes, builds its call,
// passes it through CallShard, and reads the ShardReply: the proclet's
// answer, a stale route (route again), a proclet the recovery subsystem
// restored (route again), or DataLoss naming the lost range.

#ifndef QUICKSAND_SHARDING_SHARDED_HANDLE_H_
#define QUICKSAND_SHARDING_SHARDED_HANDLE_H_

#include <cstdint>
#include <optional>
#include <string>
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

// Why a ShardedHandle::CallShard came back without the proclet's answer.
enum class ShardMiss {
  kNone,      // answered
  kStale,     // the proclet was destroyed: the route was stale
  kRestored,  // the proclet was lost, and recovery restored it in time
  kLost,      // the proclet was lost for good
};

template <typename R>
struct ShardReply {
  ShardMiss miss = ShardMiss::kNone;
  std::optional<R> answer;  // set iff answered()
  Status loss;              // DataLoss naming the lost range iff lost()

  bool answered() const { return miss == ShardMiss::kNone; }
  bool stale() const { return miss == ShardMiss::kStale; }
  bool lost() const { return miss == ShardMiss::kLost; }
};

class ShardedHandle {
 public:
  Ref<ShardIndexProclet> index() const { return index_; }
  ShardRouter& router() { return router_; }
  const ShardedOptions& options() const { return options_; }

 protected:
  static constexpr int kMaxAttempts = 16;

  // Names the range a lost shard held, for its DataLoss message.
  using LostRangeText = std::string (*)(const ShardInfo&);

  // Creates the index proclet and points this handle at it: the bootstrap
  // every Create starts with. Protecting the index is left to the caller,
  // which orders it among its own steps.
  Task<Status> CreateIndex(Ctx ctx, ShardedOptions options) {
    PlacementRequest req;
    req.heap_bytes = options.shard_base_bytes;
    auto create = ctx.rt->Create<ShardIndexProclet>(ctx, req);
    Result<Ref<ShardIndexProclet>> index = co_await std::move(create);
    if (!index.ok()) {
      co_return index.status();
    }
    index_ = *index;
    router_ = ShardRouter(*index);
    options_ = options;
    co_return Status::Ok();
  }

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

  // Awaits `call`, one call to the shard `target` names or, with a null
  // `lost_range`, to the index (target.proclet is then the index's id).
  // Either miss invalidates the router first. A destroyed proclet is a
  // stale route. A lost one, when recovery is on, stalls up to
  // restore_stall for its restore; if it stays lost, the reply carries
  // DataLoss naming lost_range(target) or the index, built only then.
  template <typename R>
  Task<ShardReply<R>> CallShard(Ctx ctx, Task<R> call, ShardInfo target,
                                LostRangeText lost_range = nullptr) {
    ShardReply<R> reply;
    try {
      reply.answer.emplace(co_await std::move(call));
      co_return std::move(reply);
    } catch (const ProcletGoneError&) {
      reply.miss = ShardMiss::kStale;
    } catch (const ProcletLostError&) {
      reply.miss = ShardMiss::kLost;
    }
    router_.Invalidate();
    if (reply.lost() && ctx.rt->recovery_enabled()) {
      // co_await is illegal in a handler, so the stall waits until here.
      auto restore = ctx.rt->AwaitRestore(target.proclet, options_.restore_stall);
      const bool restored = co_await std::move(restore);
      if (restored) {
        reply.miss = ShardMiss::kRestored;
      }
    }
    if (reply.lost()) {
      reply.loss = Status::DataLoss(lost_range != nullptr
                                        ? lost_range(target)
                                        : "shard index lost to a machine failure");
    }
    co_return std::move(reply);
  }

  // Router refresh that survives a lost index proclet: stalls for the
  // restore, then re-pulls. DataLoss only when recovery cannot bring the
  // index back.
  Task<Status> RefreshSafe(Ctx ctx) {
    for (int i = 0; i < kMaxAttempts; ++i) {
      auto refresh = router_.Refresh(ctx);
      auto guarded =
          CallShard(ctx, std::move(refresh), ShardInfo{.proclet = index_.id()});
      ShardReply<uint64_t> pulled = co_await std::move(guarded);
      if (pulled.answered()) {
        co_return Status::Ok();
      }
      if (pulled.stale()) {
        co_return Status::NotFound("shard index destroyed");
      }
      if (pulled.lost()) {
        co_return pulled.loss;
      }
    }
    co_return Status::Aborted("too many index refresh retries");
  }

  // Route through the cache with the same index-loss handling. NotFound
  // means no shard covers `key` (or the index was destroyed).
  Task<Result<ShardInfo>> RouteSafe(Ctx ctx, uint64_t key) {
    Result<ShardInfo> cached = router_.LookupCached(key);
    if (cached.ok()) {
      co_return cached;  // a warm cache answers without calling the index
    }
    for (int i = 0; i < kMaxAttempts; ++i) {
      auto route = router_.Route(ctx, key);
      auto guarded =
          CallShard(ctx, std::move(route), ShardInfo{.proclet = index_.id()});
      ShardReply<Result<ShardInfo>> routed = co_await std::move(guarded);
      if (routed.answered()) {
        co_return std::move(*routed.answer);
      }
      if (routed.stale()) {
        co_return Status::NotFound("shard index destroyed");
      }
      if (routed.lost()) {
        co_return routed.loss;
      }
    }
    co_return Status::Aborted("too many route retries");
  }

  // The status of a shard's answer, for ops that answer a Status or a
  // Result.
  static const Status& StatusOf(const Status& status) { return status; }
  template <typename T>
  static Status StatusOf(const Result<T>& result) {
    return result.status();
  }

  Ref<ShardIndexProclet> index_;
  ShardRouter router_;
  ShardedOptions options_;
};

}  // namespace quicksand

#endif  // QUICKSAND_SHARDING_SHARDED_HANDLE_H_
