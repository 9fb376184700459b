#include "quicksand/sched/local_reactor.h"

#include <algorithm>

#include "quicksand/autoscale/autoscaler.h"
#include "quicksand/common/logging.h"
#include "quicksand/memo/memo_harvester.h"

namespace quicksand {

LocalReactor::LocalReactor(Runtime& rt, MachineId machine, LocalReactorConfig config)
    : rt_(rt), machine_(machine), config_(config) {}

void LocalReactor::Start() {
  rt_.sim().Spawn(Loop(), "local_reactor_m" + std::to_string(machine_));
}

bool LocalReactor::InCooldown(ProcletId id) const {
  auto it = last_moved_.find(id);
  return it != last_moved_.end() &&
         rt_.sim().Now() - it->second < config_.proclet_cooldown;
}

Task<> LocalReactor::Loop() {
  for (;;) {
    co_await rt_.sim().Sleep(config_.period);
    if (rt_.cluster().machine(machine_).failed()) {
      co_return;  // our machine is dead; nothing left to react to
    }
    co_await HandleCpuPressure();
    co_await HandleMemoryPressure();
  }
}

Task<> LocalReactor::HandleCpuPressure() {
  Machine& self = rt_.cluster().machine(machine_);
  // Shed state from the overload controller overrides the local gates: the
  // controller only sheds after sustained queueing above target, which is
  // pressure regardless of which priority class causes it.
  const bool shedding = overload_ != nullptr && overload_->Overloaded(machine_);
  if (!shedding &&
      self.cpu().OldestWaitingAge(kPriorityNormal) < config_.cpu_starvation_threshold) {
    co_return;
  }
  // Pressure confirmed (by either signal). Serving shards pinned here cannot
  // be evicted below — splitting them is the autoscaler's job; tell it now.
  if (autoscaler_ != nullptr) {
    autoscaler_->Nudge(machine_);
  }
  // Saturation by our own priority class is throughput, not pressure; only
  // react when higher-priority work is actually squeezing us out.
  if (!shedding && self.cpu().RunnableAbove(kPriorityNormal) == 0) {
    co_return;
  }
  // Find the machine with the most idle cores (excluding us).
  MachineId best = kInvalidMachineId;
  double best_idle = config_.min_target_idle_cores;
  for (MachineId m = 0; m < rt_.cluster().size(); ++m) {
    if (m == machine_) {
      continue;
    }
    const Machine& candidate = rt_.cluster().machine(m);
    if (!candidate.accepting()) {
      continue;  // dead or being revoked — never a migration target
    }
    const double idle = static_cast<double>(candidate.spec().cores) *
                        (1.0 - candidate.cpu().LoadFactor());
    if (idle > best_idle) {
      best_idle = idle;
      best = m;
    }
  }
  if (best == kInvalidMachineId) {
    co_return;  // nowhere better to run
  }
  // Evict compute proclets, smallest heap first (cheapest to move).
  std::vector<ProcletBase*> candidates;
  for (ProcletBase* p : rt_.LiveProclets()) {
    if (p->location() == machine_ && p->kind() == ProcletKind::kCompute &&
        !p->gate_closed() && !InCooldown(p->id())) {
      candidates.push_back(p);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const ProcletBase* a, const ProcletBase* b) {
              return a->heap_bytes() < b->heap_bytes();
            });
  int moved = 0;
  for (ProcletBase* p : candidates) {
    if (moved >= config_.max_migrations_per_round) {
      break;
    }
    const ProcletId id = p->id();
    auto migrate = rt_.Migrate(id, best);
    const Status status = co_await std::move(migrate);
    if (status.ok()) {
      last_moved_[id] = rt_.sim().Now();
      ++cpu_evictions_;
      ++moved;
      QS_LOG_DEBUG("reactor", "m%u: cpu pressure, evicted compute proclet %llu -> m%u",
                   machine_, static_cast<unsigned long long>(id), best);
    }
  }
}

Task<> LocalReactor::HandleMemoryPressure() {
  Machine& self = rt_.cluster().machine(machine_);
  if (self.memory().utilization() < config_.memory_high_watermark) {
    co_return;
  }
  // Cache first: shrinking the memo cache is free relief (no gate closed,
  // no wire bytes) — only migrate live proclets if that was not enough.
  if (harvester_ != nullptr) {
    const int64_t target_free =
        self.memory().used() -
        static_cast<int64_t>(config_.memory_low_target *
                             static_cast<double>(self.memory().capacity()));
    if (target_free > 0) {
      auto release = harvester_->ReleaseBytes(machine_, target_free);
      const int64_t freed = co_await std::move(release);
      if (freed > 0) {
        ++cache_harvests_;
        cache_harvested_bytes_ += freed;
        QS_LOG_DEBUG("reactor", "m%u: memory pressure, harvested %lld cache bytes",
                     machine_, static_cast<long long>(freed));
      }
    }
    if (self.memory().utilization() <= config_.memory_low_target) {
      co_return;
    }
  }
  // Move memory proclets, largest first, until below the low target. Hot
  // (recently invoked) proclets are skipped — see memory_hot_window; the
  // harvestable cache shards are never migrated (dropping beats shipping).
  std::vector<ProcletBase*> candidates;
  for (ProcletBase* p : rt_.LiveProclets()) {
    if (p->location() != machine_ || p->kind() != ProcletKind::kMemory ||
        p->gate_closed() || p->harvestable() || InCooldown(p->id())) {
      continue;
    }
    const bool hot = p->invocation_count() > 0 &&
                     rt_.sim().Now() - p->last_invocation() <
                         config_.memory_hot_window;
    if (!hot) {
      candidates.push_back(p);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const ProcletBase* a, const ProcletBase* b) {
              return a->heap_bytes() > b->heap_bytes();
            });
  int moved = 0;
  for (ProcletBase* p : candidates) {
    if (self.memory().utilization() <= config_.memory_low_target ||
        moved >= config_.max_migrations_per_round) {
      break;
    }
    // Most free memory elsewhere.
    PlacementRequest req;
    req.kind = ProcletKind::kMemory;
    req.heap_bytes = p->heap_bytes();
    req.exclude = machine_;
    BestFitPolicy policy;
    Result<MachineId> target = policy.Place(req, rt_.cluster());
    if (!target.ok()) {
      break;  // cluster-wide memory exhaustion; nothing to do
    }
    // Only evict if the receiver stays comfortably below *its* watermark;
    // otherwise its reactor would bounce the proclet straight back
    // (cluster-wide pressure cannot be migrated away).
    const MemoryAccount& dst_mem = rt_.cluster().machine(*target).memory();
    const double dst_util_after =
        static_cast<double>(dst_mem.used() + p->heap_bytes()) /
        static_cast<double>(dst_mem.capacity());
    if (dst_util_after >= config_.memory_low_target) {
      break;
    }
    const ProcletId id = p->id();
    auto migrate = rt_.Migrate(id, *target);
    const Status status = co_await std::move(migrate);
    if (status.ok()) {
      last_moved_[id] = rt_.sim().Now();
      ++memory_evictions_;
      ++moved;
      QS_LOG_DEBUG("reactor", "m%u: memory pressure, evicted proclet %llu -> m%u",
                   machine_, static_cast<unsigned long long>(id), *target);
    }
  }
}

std::vector<std::unique_ptr<LocalReactor>> StartLocalReactors(Runtime& rt,
                                                              LocalReactorConfig config) {
  std::vector<std::unique_ptr<LocalReactor>> reactors;
  for (MachineId m = 0; m < rt.cluster().size(); ++m) {
    reactors.push_back(std::make_unique<LocalReactor>(rt, m, config));
    reactors.back()->Start();
  }
  return reactors;
}

}  // namespace quicksand
