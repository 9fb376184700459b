#include "quicksand/runtime/runtime.h"

#include <algorithm>

#include "quicksand/cluster/fault_injector.h"
#include "quicksand/common/logging.h"
#include "quicksand/health/failure_detector.h"
#include "quicksand/trace/flight_recorder.h"

namespace quicksand {

Runtime::Runtime(Simulator& sim, Cluster& cluster, RuntimeConfig config)
    : sim_(sim),
      cluster_(cluster),
      config_(config),
      placement_(std::make_unique<BestFitPolicy>()),
      location_cache_(cluster.size()) {
  QS_CHECK_MSG(cluster.size() > 0, "Runtime requires at least one machine");
  QS_CHECK(config_.controller < cluster.size());
}

Runtime::~Runtime() = default;

void Runtime::SetPlacementPolicy(std::unique_ptr<PlacementPolicy> policy) {
  QS_CHECK(policy != nullptr);
  placement_ = std::move(policy);
}

ProcletBase* Runtime::Find(ProcletId id) {
  auto it = proclets_.find(id);
  return it == proclets_.end() ? nullptr : it->second.get();
}

ProcletBase* Runtime::FindEvenIfLost(ProcletId id) {
  if (ProcletBase* live = Find(id)) {
    return live;
  }
  auto it = limbo_.find(id);
  return it == limbo_.end() ? nullptr : it->second.get();
}

MachineId Runtime::LocationOf(ProcletId id) const {
  auto it = directory_.find(id);
  return it == directory_.end() ? kInvalidMachineId : it->second;
}

std::vector<ProcletId> Runtime::ProcletsOn(MachineId machine) const {
  std::vector<ProcletId> result;
  for (const ProcletBase* proclet : live_) {
    if (proclet->location() == machine) {
      result.push_back(proclet->id());
    }
  }
  return result;
}

namespace {

// First entry of `live` whose id is not below `id`.
auto LowerBound(const std::vector<ProcletBase*>& live, ProcletId id) {
  return std::lower_bound(
      live.begin(), live.end(), id,
      [](const ProcletBase* proclet, ProcletId key) { return proclet->id() < key; });
}

}  // namespace

void Runtime::Unlist(ProcletId id) {
  auto it = LowerBound(live_, id);
  QS_CHECK(it != live_.end() && (*it)->id() == id);
  live_.erase(it);
}

Task<MachineId> Runtime::ResolveLocation(MachineId from, ProcletId id) {
  // The controller holds the authoritative directory; its own lookups are
  // local.
  if (from == config_.controller) {
    auto it = directory_.find(id);
    if (it == directory_.end()) {
      if (IsLost(id)) {
        throw ProcletLostError(id);
      }
      throw ProcletGoneError(id);
    }
    co_return it->second;
  }
  auto& cache = location_cache_[from];
  auto cached = cache.find(id);
  if (cached != cache.end()) {
    co_return cached->second;
  }
  // Cache miss: directory RPC.
  ++stats_.directory_lookups;
  const Delivery query = co_await fabric().TransferDetailed(
      from, config_.controller, config_.control_message_bytes);
  if (query != Delivery::kDelivered && !cluster_.machine(from).failed()) {
    // The lookup vanished (the caller is on the wrong side of a partition);
    // the caller backs off and retries rather than trusting silence.
    ++stats_.undelivered_lookups;
    co_return kInvalidMachineId;
  }
  auto it = directory_.find(id);
  if (it == directory_.end()) {
    co_await fabric().Transfer(config_.controller, from, config_.control_message_bytes);
    if (IsLost(id)) {
      throw ProcletLostError(id);
    }
    throw ProcletGoneError(id);
  }
  const MachineId location = it->second;
  const Delivery reply = co_await fabric().TransferDetailed(
      config_.controller, from, config_.control_message_bytes);
  if (reply != Delivery::kDelivered && !cluster_.machine(from).failed()) {
    ++stats_.undelivered_lookups;
    co_return kInvalidMachineId;
  }
  cache[id] = location;
  co_return location;
}

void Runtime::InvalidateCache(MachineId machine, ProcletId id) {
  location_cache_[machine].erase(id);
}

Task<> Runtime::PayBounce(MachineId stale_target, MachineId caller) {
  co_await fabric().Transfer(stale_target, caller, config_.control_message_bytes);
}

Task<bool> Runtime::DeliverResponse(MachineId from, MachineId to, int64_t bytes) {
  for (int attempt = 0; attempt < kMaxInvokeAttempts; ++attempt) {
    const Delivery delivery = co_await fabric().TransferDetailed(from, to, bytes);
    if (delivery != Delivery::kDropped) {
      // Delivered — or an endpoint fail-stopped, in which case there is
      // nobody left to retransmit to (or from): fail-stop semantics are
      // unchanged, the fiber unwinds through the usual lost checks.
      co_return true;
    }
    ++stats_.response_retransmits;
    co_await sim_.Sleep(kInvokeRetryBackoff);
  }
  co_return false;
}

Task<Status> Runtime::Destroy(Ctx ctx, ProcletId id) {
  ProcletBase* proclet = Find(id);
  if (proclet == nullptr) {
    if (IsLost(id)) {
      co_return Status::DataLoss("proclet was lost to a machine failure");
    }
    co_return Status::NotFound("proclet already gone");
  }
  // Control message to the host.
  co_await fabric().Transfer(ctx.machine, proclet->location(),
                             config_.control_message_bytes);
  if (proclet->lost()) {
    co_return Status::DataLoss("proclet was lost to a machine failure");
  }
  if (proclet->gate_closed()) {
    co_return Status::Aborted("proclet is under migration/maintenance");
  }
  co_await proclet->CloseGateAndDrain();
  if (proclet->lost()) {
    co_return Status::DataLoss("proclet was lost to a machine failure");
  }
  co_await proclet->OnQuiesce();
  co_await proclet->OnDestroy();
  if (proclet->lost()) {
    co_return Status::DataLoss("proclet was lost to a machine failure");
  }
  proclet->MarkDestroyed();
  cluster_.machine(proclet->location()).memory().Release(proclet->heap_bytes());
  if (proclet->kind() == ProcletKind::kCompute) {
    cluster_.machine(proclet->location()).AdjustHostedCompute(-1);
  }
  proclet->heap_bytes_ = 0;
  if (tracer_ != nullptr) {
    tracer_->Instant(ctx.trace, proclet->location(), TraceOp::kDestroy, id);
  }
  directory_.erase(id);
  epoch_of_.erase(id);
  ++stats_.destructions;

  // Gate waiters were woken by MarkDestroyed and will observe destruction at
  // their (already scheduled) resume events; delete the object strictly
  // after those events run.
  auto it = proclets_.find(id);
  QS_CHECK(it != proclets_.end());
  std::shared_ptr<ProcletBase> doomed(it->second.release());
  proclets_.erase(it);
  Unlist(id);
  sim_.Post([doomed]() mutable { doomed.reset(); });
  co_return Status::Ok();
}

Task<Status> Runtime::Migrate(ProcletId id, MachineId dst, uint64_t expected_epoch) {
  if (tracer_ == nullptr) {
    co_return co_await MigrateImpl(id, dst, expected_epoch);
  }
  // One `migrate` span covering gate->drain->copy->flip, attributed to the
  // source machine and stamped with the fencing token the caller resolved.
  TraceContext parent;
  parent.epoch = expected_epoch;
  const MachineId src = TraceHomeOf(id);
  SpanGuard span(tracer_,
                 tracer_->BeginSpan(parent, src, TraceOp::kMigrate, id,
                                    static_cast<int64_t>(dst)),
                 src);
  const Status status = co_await MigrateImpl(id, dst, expected_epoch);
  span.End(status.ok() ? "ok" : StatusCodeName(status.code()));
  co_return status;
}

Task<Status> Runtime::MigrateImpl(ProcletId id, MachineId dst, uint64_t expected_epoch) {
  QS_CHECK(dst < cluster_.size());
  ProcletBase* proclet = Find(id);
  if (proclet == nullptr) {
    if (IsLost(id)) {
      co_return Status::DataLoss("proclet was lost to a machine failure");
    }
    co_return Status::NotFound("proclet is gone");
  }
  // Fence before anything else — including the already-there early return —
  // so a replayed command from a previous epoch never reports success.
  if (expected_epoch != 0 && expected_epoch != proclet->epoch()) {
    ++stats_.fenced_migrations;
    if (tracer_ != nullptr) {
      TraceContext stale;
      stale.epoch = expected_epoch;
      tracer_->Instant(stale, proclet->location(), TraceOp::kFence, id,
                       static_cast<int64_t>(proclet->epoch()), "stale_epoch");
    }
    co_return Status::Aborted("migration fenced: stale epoch");
  }
  if (proclet->location() == dst) {
    co_return Status::Ok();
  }
  if (cluster_.machine(dst).failed()) {
    ++stats_.failed_migrations;
    co_return Status::Unavailable("destination machine has failed");
  }
  if (proclet->gate_closed()) {
    ++stats_.failed_migrations;
    co_return Status::Aborted("proclet is already under migration/maintenance");
  }

  const SimTime started = sim_.Now();
  co_await proclet->CloseGateAndDrain();
  if (proclet->lost()) {
    ++stats_.failed_migrations;
    co_return Status::DataLoss("source machine failed during drain");
  }
  co_await proclet->OnQuiesce();
  if (proclet->lost()) {
    ++stats_.failed_migrations;
    co_return Status::DataLoss("source machine failed during quiesce");
  }
  const MachineId src = proclet->location();
  const int64_t heap = proclet->heap_bytes();
  if (cluster_.machine(dst).failed()) {
    proclet->OpenGate();
    proclet->OnResume();
    ++stats_.failed_migrations;
    co_return Status::Unavailable("destination machine failed during drain");
  }
  if (!cluster_.machine(dst).memory().TryCharge(heap)) {
    proclet->OpenGate();
    proclet->OnResume();
    ++stats_.failed_migrations;
    co_return Status::ResourceExhausted("destination out of memory");
  }
  if (!proclet->TryRelocateAux(dst)) {
    cluster_.machine(dst).memory().Release(heap);
    proclet->OpenGate();
    proclet->OnResume();
    ++stats_.failed_migrations;
    co_return Status::ResourceExhausted("destination lacks auxiliary resources");
  }

  // From here on the destination holds a heap charge (and possibly an aux
  // reservation); every bail-out path must unwind both.
  auto unwind_dst = [&] {
    cluster_.machine(dst).memory().Release(heap);
    proclet->UndoRelocateAux(dst);
  };

  // Kernel-side fixed work (pinning, mapping), then the heap copy — eagerly
  // in the blocking window, or in the background for lazy migration.
  co_await sim_.Sleep(config_.migration_fixed_overhead);
  if (proclet->lost()) {
    unwind_dst();
    ++stats_.failed_migrations;
    co_return Status::DataLoss("source machine failed during migration setup");
  }
  if (cluster_.machine(dst).failed()) {
    unwind_dst();
    proclet->OpenGate();
    proclet->OnResume();
    ++stats_.failed_migrations;
    co_return Status::Unavailable("destination machine failed during migration");
  }
  const bool lazy = config_.lazy_migration && proclet->MigrationExtraBytes() == 0;
  if (lazy) {
    // Control metadata ships now; the heap follows asynchronously while the
    // source keeps its charge until the copy lands.
    const bool ok = co_await fabric().Transfer(src, dst, config_.migration_header_bytes);
    if (!ok || proclet->lost() || cluster_.machine(dst).failed()) {
      unwind_dst();
      ++stats_.failed_migrations;
      if (proclet->lost()) {
        co_return Status::DataLoss("source machine failed during migration");
      }
      proclet->OpenGate();
      proclet->OnResume();
      co_return Status::Unavailable("destination machine failed during migration");
    }
    sim_.Spawn(LazyCopy(id, src, dst, heap, started), "lazy_copy");
  } else {
    const bool ok = co_await fabric().Transfer(src, dst,
                                               heap + proclet->MigrationExtraBytes() +
                                                   config_.migration_header_bytes);
    if (!ok || proclet->lost() || cluster_.machine(dst).failed()) {
      unwind_dst();
      ++stats_.failed_migrations;
      if (proclet->lost()) {
        co_return Status::DataLoss("source machine failed during migration");
      }
      proclet->OpenGate();
      proclet->OnResume();
      co_return Status::Unavailable("destination machine failed during migration");
    }
    cluster_.machine(src).memory().Release(heap);
    proclet->FinishRelocateAux(src);
  }
  // No fence re-check is needed at the flip: the epoch cannot change while
  // this migration holds the gate (migration is the only bump source for a
  // live proclet, and a mid-drain DeclareMachineDead surfaces through the
  // lost() checks above).
  if (proclet->kind() == ProcletKind::kCompute) {
    cluster_.machine(src).AdjustHostedCompute(-1);
    cluster_.machine(dst).AdjustHostedCompute(1);
  }
  proclet->location_ = dst;
  directory_[id] = dst;
  proclet->epoch_ = ++epoch_of_[id];
  location_cache_[src].erase(id);

  ++stats_.migrations;
  stats_.migration_latency.Add(sim_.Now() - started);
  QS_LOG_DEBUG("runtime", "migrated proclet %llu (%s, %lld B heap) m%u -> m%u in %s",
               static_cast<unsigned long long>(id), ProcletKindName(proclet->kind()),
               static_cast<long long>(heap), src, dst,
               (sim_.Now() - started).ToString().c_str());

  proclet->OpenGate();
  proclet->OnResume();
  co_return Status::Ok();
}

Task<Status> Runtime::BeginMaintenance(ProcletId id) {
  ProcletBase* proclet = Find(id);
  if (proclet == nullptr) {
    if (IsLost(id)) {
      co_return Status::DataLoss("proclet was lost to a machine failure");
    }
    co_return Status::NotFound("proclet is gone");
  }
  if (proclet->gate_closed()) {
    co_return Status::Aborted("proclet is already under migration/maintenance");
  }
  co_await proclet->CloseGateAndDrain();
  if (proclet->lost()) {
    co_return Status::DataLoss("proclet was lost during drain");
  }
  if (Find(id) == nullptr) {
    co_return Status::NotFound("proclet destroyed during drain");
  }
  co_return Status::Ok();
}

void Runtime::EndMaintenance(ProcletId id) {
  ProcletBase* proclet = FindEvenIfLost(id);
  QS_CHECK_MSG(proclet != nullptr, "EndMaintenance on a destroyed proclet");
  if (proclet->lost()) {
    // The proclet died under maintenance; there is no gate left to open.
    return;
  }
  proclet->OpenGate();
}

Task<> Runtime::LazyCopy(ProcletId id, MachineId src, MachineId dst, int64_t bytes,
                         SimTime started) {
  const bool ok = co_await fabric().Transfer(src, dst, bytes);
  // The source held its charge through the copy window (double-charged with
  // the destination); release it now. This is safe even if the proclet was
  // destroyed or re-migrated meanwhile: the amount matches what src hosted
  // at flip time, and later mutations charge the new location.
  cluster_.machine(src).memory().Release(bytes);
  if (!ok) {
    // Post-copy hazard window: the source died (or the destination crashed)
    // before the heap landed. If the proclet still lives at dst it now has
    // an unrecoverable hole — declare it lost. (If dst itself crashed, the
    // purge already handled it; if the proclet moved on, the later eager
    // copy shipped whatever state survived — modeled as intact.)
    if (LocationOf(id) == dst && !cluster_.machine(dst).failed()) {
      LoseProclet(id);
    }
    co_return;
  }
  ++stats_.lazy_copies_completed;
  stats_.lazy_copy_latency.Add(sim_.Now() - started);
}

void Runtime::LoseProclet(ProcletId id) {
  auto it = proclets_.find(id);
  if (it == proclets_.end()) {
    return;
  }
  ProcletBase* proclet = it->second.get();
  const MachineId host = proclet->location();
  // Write the heap off against the (dead or dying) host before MarkLost
  // zeroes the proclet's accounting.
  cluster_.machine(host).memory().Release(proclet->heap_bytes());
  if (proclet->kind() == ProcletKind::kCompute) {
    cluster_.machine(host).AdjustHostedCompute(-1);
  }
  lost_ids_.insert(id);
  proclet->MarkLost();
  directory_.erase(id);
  for (auto& cache : location_cache_) {
    cache.erase(id);
  }
  // A restored proclet can be lost again; keep the NEWEST corpse in limbo
  // (it is the one in-flight fibers reference) and retire the previous one
  // to the graveyard so older pointers stay valid too.
  auto limbo_it = limbo_.find(id);
  if (limbo_it != limbo_.end()) {
    graveyard_.push_back(std::move(limbo_it->second));
    limbo_it->second = std::move(it->second);
  } else {
    limbo_.emplace(id, std::move(it->second));
  }
  proclets_.erase(it);
  Unlist(id);
  ++stats_.lost_proclets;
  if (tracer_ != nullptr) {
    tracer_->Instant(TraceContext{}, host, TraceOp::kLost, id,
                     static_cast<int64_t>(proclet->epoch()));
  }
  QS_LOG_DEBUG("runtime", "proclet %llu (%s) lost with machine m%u",
               static_cast<unsigned long long>(id), ProcletKindName(proclet->kind()),
               host);
}

Status Runtime::AdoptRestored(ProcletId id, std::unique_ptr<ProcletBase> obj,
                              MachineId host) {
  QS_CHECK_MSG(obj != nullptr, "AdoptRestored needs a restored object");
  if (lost_ids_.count(id) == 0) {
    return Status::FailedPrecondition("proclet was not lost");
  }
  if (proclets_.count(id) != 0) {
    return Status::FailedPrecondition("proclet id already live");
  }
  if (cluster_.machine(host).failed()) {
    return Status::Unavailable("restore target machine has failed");
  }
  obj->rt_ = this;
  obj->id_ = id;
  obj->location_ = host;
  // New incarnation, new epoch: anything stamped by (or addressed to) the
  // old one is now fenced.
  obj->epoch_ = ++epoch_of_[id];
  if (obj->kind() == ProcletKind::kCompute) {
    cluster_.machine(host).AdjustHostedCompute(1);
  }
  lost_ids_.erase(id);
  directory_[id] = host;
  const uint64_t new_epoch = epoch_of_[id];
  live_.insert(LowerBound(live_, id), obj.get());
  proclets_.emplace(id, std::move(obj));
  ++stats_.restored_proclets;
  if (tracer_ != nullptr) {
    tracer_->Instant(TraceContext{}, host, TraceOp::kRestore, id,
                     static_cast<int64_t>(new_epoch));
  }
  QS_LOG_DEBUG("runtime", "proclet %llu restored on m%u",
               static_cast<unsigned long long>(id), host);
  return Status::Ok();
}

Task<bool> Runtime::AwaitRestore(ProcletId id, Duration timeout, Duration poll) {
  const SimTime deadline = sim_.Now() + timeout;
  for (;;) {
    if (directory_.count(id) != 0) {
      co_return true;  // live again (restored, or never actually lost)
    }
    if (!IsLost(id) || !recovery_enabled_) {
      co_return false;  // destroyed, or nothing will ever restore it
    }
    if (sim_.Now() >= deadline) {
      co_return false;
    }
    const Duration remaining = deadline - sim_.Now();
    co_await sim_.Sleep(remaining < poll ? remaining : poll);
  }
}

std::vector<ProcletId> Runtime::LostProcletsOn(MachineId machine) const {
  std::vector<ProcletId> ids;
  for (const auto& [id, corpse] : limbo_) {
    if (lost_ids_.count(id) != 0 && corpse->location() == machine) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void Runtime::AttachFaultInjector(FaultInjector& injector) {
  injector.OnCrash([this](MachineId machine) { HandleMachineFailure(machine); });
}

void Runtime::AttachFailureDetector(FailureDetector& detector) {
  detector.OnConfirm([this](MachineId machine) {
    if (cluster_.machine(machine).failed()) {
      // Silence had a simple cause: the machine really crashed. Same path
      // as the oracle, just later.
      HandleMachineFailure(machine);
    } else {
      // Gray failure: the machine is (as far as the physics of the sim
      // knows) alive but unreachable. Fence it out.
      DeclareMachineDead(machine);
    }
  });
}

void Runtime::PurgeMachine(MachineId machine, bool fence) {
  // The dead machine's own cache is useless; per-id entries pointing at it
  // from other machines purge with each lost proclet below, and stale
  // entries for surviving proclets bounce harmlessly.
  location_cache_[machine].clear();
  for (ProcletId id : ProcletsOn(machine)) {
    if (fence) {
      Find(id)->fenced_ = true;
    }
    LoseProclet(id);
  }
}

void Runtime::HandleMachineFailure(MachineId machine) {
  QS_CHECK_MSG(machine != config_.controller,
               "controller failure is outside the fail-stop model (the directory "
               "is assumed durable)");
  if (!dead_machines_.insert(machine).second) {
    return;  // already written off (detector and oracle can both fire)
  }
  ++stats_.crashes;
  if (tracer_ != nullptr) {
    tracer_->Instant(TraceContext{}, machine, TraceOp::kCrash, 0,
                     static_cast<int64_t>(ProcletsOn(machine).size()));
  }
  if (flight_recorder_ != nullptr) {
    flight_recorder_->Capture(machine, "crash");
  }
  PurgeMachine(machine, /*fence=*/false);
}

void Runtime::DeclareMachineDead(MachineId machine) {
  QS_CHECK_MSG(machine != config_.controller,
               "the controller cannot declare itself dead (the directory is "
               "assumed durable)");
  if (!dead_machines_.insert(machine).second) {
    return;  // already crashed or declared
  }
  ++stats_.declared_dead;
  // Terminal membership verdict: even if the partition heals, the machine
  // never takes new work (accepting() stays false).
  cluster_.machine(machine).MarkSuspected(true);
  QS_LOG_INFO("runtime", "m%u declared dead (gray failure): fencing %zu proclets",
              machine, ProcletsOn(machine).size());
  if (tracer_ != nullptr) {
    tracer_->Instant(TraceContext{}, machine, TraceOp::kDeclareDead, 0,
                     static_cast<int64_t>(ProcletsOn(machine).size()));
  }
  if (flight_recorder_ != nullptr) {
    flight_recorder_->Capture(machine, "declared_dead");
  }
  PurgeMachine(machine, /*fence=*/true);
}

void Runtime::RecordAffinity(ProcletId a, ProcletId b, int64_t bytes) {
  affinity_by_[a][b] += bytes;
  affinity_by_[b][a] += bytes;
}

int64_t Runtime::AffinityBytes(ProcletId a, ProcletId b) const {
  auto it = affinity_by_.find(a);
  if (it == affinity_by_.end()) {
    return 0;
  }
  auto jt = it->second.find(b);
  return jt == it->second.end() ? 0 : jt->second;
}

std::unordered_map<ProcletId, int64_t> Runtime::AffinityPeers(ProcletId a) const {
  auto it = affinity_by_.find(a);
  if (it == affinity_by_.end()) {
    return {};
  }
  return it->second;
}

}  // namespace quicksand
