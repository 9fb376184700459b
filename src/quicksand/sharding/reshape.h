// One crash-safe split/merge protocol for range-partitioned shards (§3.3).
//
// "If a shard becomes oversized, Quicksand splits it into two shards by
// invoking a data-structure-specific split function. [...] Quicksand can
// respond by invoking a data-structure-specific merge function to combine
// the adjacent shards into a single memory proclet."
//
// The data-structure-specific part is four hooks, the same on every shard
// type (VectorShardProclet, MapShardProclet, FencedKvProclet) and called
// only while the shard's maintenance gate is closed:
//
//   SplitPayload ExtractUpperRange(uint64_t point)  // keep [begin, point)
//   SplitPayload ExtractAll()                        // merge donor side
//   Status AdoptPayload(SplitPayload&&)              // fill an empty shard
//   Status AbsorbRightNeighbor(SplitPayload&&)       // append the range
//                                                    // right of ours
//
// plus range_begin()/range_end(). A SplitPayload carries its own range
// [range_begin, range_end) and its wire size (total_bytes); a failed Adopt
// or Absorb leaves it untouched. This is Nu's per-shard split() /
// emplace_batch() pair, with the merge-side duals.
//
// Everything else lives here, once: close the gate, extract, create the new
// shard, close its gate, copy, install or roll back, re-route. Callers
// supply only what differs between them: the split point (evaluated under
// the donor's closed gate), where the new shard goes, and the routing
// update. ShardedVector and ShardedMap route through an index-proclet RPC;
// KvFrontend edits its in-process range table. The routing update runs
// while every gate the reshape holds is still closed, so a request that
// raced the reshape sees the new layout when it is let through.
//
// Crash safety: an extracted payload is never destroyed until it is
// installed somewhere. If the destination dies mid-copy (or the copy never
// arrives), the payload rolls back into the shard it came from and the
// orphan half of a split is fence-aborted: destroyed, never routed to. The
// payload is discarded only when the rollback target has died too. Its
// bytes were resident on the dead machine and died with it, exactly as if
// no reshape had been running.

#ifndef QUICKSAND_SHARDING_RESHAPE_H_
#define QUICKSAND_SHARDING_RESHAPE_H_

#include <cstdint>
#include <utility>

#include "quicksand/common/status.h"
#include "quicksand/runtime/runtime.h"

namespace quicksand {

// Crash-path counters; one instance per reshape caller.
struct ReshapeStats {
  // Payloads returned to their source after a failed install leg
  // (destination crashed mid-copy, copy never arrived, or out of memory).
  int64_t rollbacks = 0;
  // Payloads discarded because the shard they had to roll back into was
  // lost: the bytes were resident on the dead machine and died with it.
  int64_t payload_discards = 0;
};

// RAII helper: reopens a maintenance gate on scope exit.
class MaintenanceGuard {
 public:
  MaintenanceGuard(Runtime& rt, ProcletId id) : rt_(&rt), id_(id) {}
  MaintenanceGuard(const MaintenanceGuard&) = delete;
  MaintenanceGuard& operator=(const MaintenanceGuard&) = delete;
  MaintenanceGuard(MaintenanceGuard&& o) noexcept
      : rt_(std::exchange(o.rt_, nullptr)), id_(o.id_) {}
  ~MaintenanceGuard() { Release(); }

  void Release() {
    if (rt_ != nullptr) {
      std::exchange(rt_, nullptr)->EndMaintenance(id_);
    }
  }

 private:
  Runtime* rt_;
  ProcletId id_;
};

namespace internal {

// Installs a payload back into the shard it was extracted from
// (AbsorbRightNeighbor when `adjacent`, AdoptPayload otherwise), retrying
// memory pressure but giving up the moment the shard is lost. A lost proclet
// ACCEPTS heap charges without accounting (so callers' rollback invariants
// hold), which means a blind retry loop would "succeed" against the limbo
// corpse and silently drop the payload. Never leaves it half-installed.
template <typename Shard>
Task<Status> RestorePayload(Simulator& sim, Shard* shard, bool adjacent,
                            typename Shard::SplitPayload&& payload,
                            ReshapeStats* stats) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (shard->lost()) {
      break;
    }
    const Status installed = adjacent
                                 ? shard->AbsorbRightNeighbor(std::move(payload))
                                 : shard->AdoptPayload(std::move(payload));
    if (installed.code() != StatusCode::kResourceExhausted) {
      if (installed.ok() && stats != nullptr) {
        ++stats->rollbacks;
      }
      co_return installed;
    }
    co_await sim.Sleep(Duration::Millis(1));
  }
  // The rollback target is gone: the extracted range's bytes were resident
  // on its machine and died with it — the same loss a crash with no reshape
  // in flight would have caused. The owner's repair path (KvFrontend::
  // RepairLostShards, or durability recovery) restores the range.
  if (stats != nullptr) {
    ++stats->payload_discards;
  }
  co_return Status::DataLoss(
      "rollback target lost; the extracted range died with its host");
}

// Ships `bytes` src -> dst; true when a full copy arrived while both
// endpoints were still up. A transient fabric fault (loss window, short
// partition) should not abort a reshape outright, so the copy is retried a
// couple of times — but only while both endpoints live: a dead endpoint
// cannot recover here.
inline Task<bool> CopyPayload(Runtime& rt, MachineId src, MachineId dst,
                              int64_t bytes) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (rt.cluster().machine(src).failed() ||
        rt.cluster().machine(dst).failed()) {
      co_return false;
    }
    auto transfer = rt.fabric().Transfer(src, dst, bytes);
    if (co_await std::move(transfer)) {
      co_return true;
    }
  }
  co_return false;
}

}  // namespace internal

// Splits `donor_id` in two. Under the donor's closed gate,
// `split_point(Shard&) -> Result<uint64_t>` picks the cut (or refuses it);
// the upper range moves into a new shard created with `placement`, and
// `route(Shard& donor, Shard& fresh, int64_t moved_bytes) -> Task<Status>`
// publishes the new layout while both gates are still closed. Gates reopen
// new shard first, donor last.
//
// `unsafe_install` restores the pre-hardening blind install: the payload
// goes into the new shard without checking that it survived the copy. Only
// the chaos engine's bug-reintroduction path sets it.
template <typename Shard, typename PointFn, typename RouteFn>
Task<Status> ReshapeSplit(Ctx ctx, ProcletId donor_id, PointFn split_point,
                          PlacementRequest placement, RouteFn route,
                          ReshapeStats* stats, bool unsafe_install = false) {
  Runtime& rt = *ctx.rt;
  Status gate = co_await rt.BeginMaintenance(donor_id);
  if (!gate.ok()) {
    co_return gate;
  }
  MaintenanceGuard donor_guard(rt, donor_id);
  Shard* donor = rt.UnsafeGet<Shard>(donor_id);
  QS_CHECK(donor != nullptr);
  // Durable shards are pinned: a reshape mutates them via UnsafeGet,
  // bypassing the mutation log, and a pre-split checkpoint restored after a
  // split would resurrect an overlapping range.
  if (donor->durable()) {
    co_return Status::FailedPrecondition("durable shards are pinned");
  }
  const Result<uint64_t> point = split_point(*donor);
  if (!point.ok()) {
    co_return point.status();
  }
  const MachineId donor_machine = donor->location();
  typename Shard::SplitPayload payload = donor->ExtractUpperRange(*point);
  // From here on the payload OWNS the upper range: every exit below must
  // install it somewhere (the new shard, or back into the donor) or account
  // its loss to the crash of the machine it was resident on.
  auto create = rt.Create<Shard>(ctx, placement, payload.range_begin,
                                 payload.range_end);
  Result<Ref<Shard>> created = co_await std::move(create);
  if (!created.ok()) {
    auto rollback = internal::RestorePayload(rt.sim(), donor, /*adjacent=*/true,
                                             std::move(payload), stats);
    const Status rolled_back = co_await std::move(rollback);
    co_return rolled_back.ok() ? created.status() : rolled_back;
  }
  auto begin_new = rt.BeginMaintenance(created->id());
  const Status new_gate = co_await std::move(begin_new);
  if (!new_gate.ok()) {
    // The new shard died (or vanished) before it was ever routed to;
    // nothing references it, so just put the payload back.
    auto rollback = internal::RestorePayload(rt.sim(), donor, /*adjacent=*/true,
                                             std::move(payload), stats);
    const Status rolled_back = co_await std::move(rollback);
    co_return rolled_back.ok() ? new_gate : rolled_back;
  }
  MaintenanceGuard new_guard(rt, created->id());
  Shard* fresh = rt.UnsafeGet<Shard>(created->id());
  QS_CHECK(fresh != nullptr);

  const int64_t moved_bytes = payload.total_bytes;
  auto copy = internal::CopyPayload(rt, donor_machine, fresh->location(),
                                    moved_bytes);
  const bool arrived = co_await std::move(copy);
  Status installed = Status::Unavailable("split target failed during the copy");
  if (unsafe_install || (arrived && !fresh->lost())) {
    installed = fresh->AdoptPayload(std::move(payload));
  }
  if (!installed.ok()) {
    // The new shard never held a full copy (its machine died mid-copy, the
    // fabric gave up, or it ran out of memory): fence-abort the orphan half
    // — it was never routed to, so destroying it strands nothing — and roll
    // the payload back into the donor.
    new_guard.Release();
    auto destroy = rt.Destroy(ctx, created->id());
    (void)co_await std::move(destroy);
    auto rollback = internal::RestorePayload(rt.sim(), donor, /*adjacent=*/true,
                                             std::move(payload), stats);
    const Status rolled_back = co_await std::move(rollback);
    co_return rolled_back.ok() ? installed : rolled_back;
  }
  auto routed = route(*donor, *fresh, moved_bytes);
  co_return co_await std::move(routed);
}

// Merges `right_id` into its left neighbor `left_id`. Gates close left then
// right; `route(Shard& left, int64_t moved_bytes) -> Task<Status>` publishes
// the widened left shard while both are still closed; the emptied right
// shard's gate reopens and, when routing succeeded, it is destroyed; the
// left gate reopens last. `unsafe_install` as for ReshapeSplit.
template <typename Shard, typename RouteFn>
Task<Status> ReshapeMerge(Ctx ctx, ProcletId left_id, ProcletId right_id,
                          RouteFn route, ReshapeStats* stats,
                          bool unsafe_install = false) {
  Runtime& rt = *ctx.rt;
  Status gate = co_await rt.BeginMaintenance(left_id);
  if (!gate.ok()) {
    co_return gate;
  }
  MaintenanceGuard left_guard(rt, left_id);
  gate = co_await rt.BeginMaintenance(right_id);
  if (!gate.ok()) {
    co_return gate;
  }
  MaintenanceGuard right_guard(rt, right_id);

  Shard* left = rt.UnsafeGet<Shard>(left_id);
  Shard* right = rt.UnsafeGet<Shard>(right_id);
  QS_CHECK(left != nullptr && right != nullptr);
  if (left->durable() || right->durable()) {
    co_return Status::FailedPrecondition("durable shards are pinned");
  }
  if (left->range_end() != right->range_begin()) {
    co_return Status::FailedPrecondition("shards not contiguous");
  }
  const MachineId right_machine = right->location();
  const MachineId left_machine = left->location();
  typename Shard::SplitPayload payload = right->ExtractAll();
  // As in ReshapeSplit: the payload owns the right shard's contents until it
  // is installed at the left or restored to the right.
  const int64_t moved_bytes = payload.total_bytes;
  auto copy = internal::CopyPayload(rt, right_machine, left_machine, moved_bytes);
  const bool arrived = co_await std::move(copy);
  Status installed =
      Status::Unavailable("merge destination failed during the copy");
  if (unsafe_install || (arrived && !left->lost())) {
    installed = left->AbsorbRightNeighbor(std::move(payload));
  }
  if (!installed.ok()) {
    // The left shard never took the copy: restore the right shard exactly
    // as it was (racing requests merely bounced meanwhile). The left shard's
    // own range is untouched — if its machine died, that loss is the
    // crash's, not the merge's.
    auto rollback = internal::RestorePayload(rt.sim(), right, /*adjacent=*/false,
                                             std::move(payload), stats);
    const Status rolled_back = co_await std::move(rollback);
    co_return rolled_back.ok() ? installed : rolled_back;
  }
  auto routed = route(*left, moved_bytes);
  const Status status = co_await std::move(routed);
  right_guard.Release();
  if (!status.ok()) {
    co_return status;
  }
  auto destroy = rt.Destroy(ctx, right_id);
  (void)co_await std::move(destroy);
  co_return Status::Ok();
}

}  // namespace quicksand

#endif  // QUICKSAND_SHARDING_RESHAPE_H_
