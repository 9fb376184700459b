#include "quicksand/sched/global_rebalancer.h"

#include <algorithm>
#include <optional>

#include "quicksand/common/logging.h"
#include "quicksand/sched/placement.h"

namespace quicksand {

GlobalRebalancer::GlobalRebalancer(Runtime& rt, GlobalRebalancerConfig config)
    : rt_(rt), config_(config) {}

void GlobalRebalancer::Start() { rt_.sim().Spawn(Loop(), "global_rebalancer"); }

Task<> GlobalRebalancer::Loop() {
  for (;;) {
    co_await rt_.sim().Sleep(config_.period);
    (void)co_await RebalanceOnce();
  }
}

double GlobalRebalancer::PlacementOn(const ProcletBase& p, MachineId machine) const {
  PlacementRequest req;
  req.kind = p.kind();
  req.heap_bytes = p.heap_bytes();
  // Don't let the proclet's own presence handicap its current machine.
  return PlacementScore(req, rt_.cluster().machine(machine), machine == p.location());
}

double GlobalRebalancer::ScoreOn(const ProcletBase& p, MachineId machine,
                                 double placement) const {
  double score = placement;
  if (machine == p.location() && p.kind() == ProcletKind::kMemory) {
    // Its heap is charged here; compare "free bytes if I weren't here" with
    // the other machines' free bytes.
    score += static_cast<double>(p.heap_bytes());
  }
  if (config_.affinity_weight > 0.0) {
    // Reward machines hosting proclets this one talks to.
    double affinity = 0.0;
    for (const auto& [peer, bytes] : rt_.AffinityPeers(p.id())) {
      if (rt_.LocationOf(peer) == machine) {
        affinity += static_cast<double>(bytes);
      }
    }
    score += config_.affinity_weight * affinity;
  }
  return score;
}

Task<int> GlobalRebalancer::RebalanceOnce() {
  struct Move {
    ProcletId id;
    MachineId to;
    double gain;
  };
  std::vector<Move> moves;
  // Nothing below suspends until the moves, so the live list and every
  // machine hold still while the scan walks them. PlacementScore reads only
  // the request's kind, so one read serves every proclet of that kind: by
  // machine, kind (3 values) and whether the proclet is hosted there.
  std::vector<std::optional<double>> placements(rt_.cluster().size() * 3 * 2);
  auto placement_on = [&](const ProcletBase& p, MachineId machine) {
    std::optional<double>& read =
        placements[(machine * 3 + static_cast<size_t>(p.kind())) * 2 +
                   (machine == p.location() ? 1 : 0)];
    if (!read.has_value()) {
      read = PlacementOn(p, machine);  // first need: see global_rebalancer.h
    }
    return *read;
  };
  for (ProcletBase* p : rt_.LiveProclets()) {
    if (p->gate_closed()) {
      continue;
    }
    const ProcletId id = p->id();
    auto cooled = last_moved_.find(id);
    if (cooled != last_moved_.end() &&
        rt_.sim().Now() - cooled->second < config_.proclet_cooldown) {
      continue;
    }
    if (p->kind() == ProcletKind::kMemory && p->invocation_count() > 0 &&
        rt_.sim().Now() - p->last_invocation() < config_.memory_hot_window) {
      continue;
    }
    const MachineId current = p->location();
    const double here = ScoreOn(*p, current, placement_on(*p, current));
    MachineId best = current;
    double best_score = here;
    for (MachineId m = 0; m < rt_.cluster().size(); ++m) {
      if (m == current) {
        continue;
      }
      if (!rt_.cluster().machine(m).accepting()) {
        continue;  // dead or being revoked — never a migration target
      }
      if (rt_.cluster().machine(m).memory().free() < p->heap_bytes()) {
        continue;
      }
      const double score = ScoreOn(*p, m, placement_on(*p, m));
      if (score > best_score) {
        best_score = score;
        best = m;
      }
    }
    const double min_gain = p->kind() == ProcletKind::kMemory
                                ? static_cast<double>(config_.min_memory_gain_bytes)
                                : 1.0;
    if (best != current &&
        best_score > here * (1.0 + config_.improvement_threshold) + min_gain) {
      moves.push_back(Move{id, best, best_score - here});
    }
  }
  // Biggest wins first, bounded per round.
  std::sort(moves.begin(), moves.end(),
            [](const Move& a, const Move& b) { return a.gain > b.gain; });
  int moved = 0;
  for (const Move& move : moves) {
    if (moved >= config_.max_migrations_per_round) {
      break;
    }
    // Re-validate against the *current* state: earlier moves in this round
    // change scores, and acting on the stale plan piles proclets onto one
    // target (or swaps chatty pairs past each other).
    ProcletBase* p = rt_.Find(move.id);
    if (p == nullptr || p->gate_closed()) {
      continue;
    }
    if (!rt_.cluster().machine(move.to).accepting()) {
      continue;
    }
    if (rt_.cluster().machine(move.to).memory().free() < p->heap_bytes()) {
      continue;
    }
    const double revalidate_gain =
        p->kind() == ProcletKind::kMemory
            ? static_cast<double>(config_.min_memory_gain_bytes)
            : 1.0;
    const double here_now = ScoreOn(*p, p->location(), PlacementOn(*p, p->location()));
    const double there_now = ScoreOn(*p, move.to, PlacementOn(*p, move.to));
    if (there_now <=
        here_now * (1.0 + config_.improvement_threshold) + revalidate_gain) {
      continue;
    }
    auto migrate = rt_.Migrate(move.id, move.to);
    const Status status = co_await std::move(migrate);
    if (status.ok()) {
      last_moved_[move.id] = rt_.sim().Now();
      ++moved;
      ++total_migrations_;
      QS_LOG_DEBUG("rebalancer", "moved proclet %llu -> m%u (gain %.1f)",
                   static_cast<unsigned long long>(move.id), move.to, move.gain);
    }
  }
  co_return moved;
}

}  // namespace quicksand
