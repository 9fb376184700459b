// GlobalRebalancer: the slow, cluster-wide half of the two-level scheduler
// (§5): "slow global decisions that reflect long-term shifts in usage".
//
// Periodically scans every proclet and asks whether a different machine
// would score meaningfully better for it — considering the resource the
// proclet consumes and, optionally, communication affinity (colocate chatty
// proclets, §5 "How can we maintain locality?"). Migrations per round are
// bounded, and an improvement hysteresis avoids oscillation against the
// local reactors.
//
// A scan walks the runtime's one id-ordered list of live proclets in place,
// and reads each machine's placement score once per scan, lazily: the
// first time a proclet needs it, then from the scan's cache. Not before
// then, because a compute score syncs that machine's CPU scheduler, which
// may arm a wake-up; reading in first-need order keeps those reads where a
// per-proclet read would make them. Only the revalidation before each move
// reads live state again.

#ifndef QUICKSAND_SCHED_GLOBAL_REBALANCER_H_
#define QUICKSAND_SCHED_GLOBAL_REBALANCER_H_

#include <unordered_map>

#include "quicksand/runtime/runtime.h"

namespace quicksand {

struct GlobalRebalancerConfig {
  Duration period = Duration::Millis(50);
  // Required relative score improvement before moving a proclet.
  double improvement_threshold = 0.25;
  int max_migrations_per_round = 8;
  // Weight of affinity (bytes exchanged) vs. resource score when choosing a
  // home; 0 disables affinity-aware colocation.
  double affinity_weight = 0.0;
  // Minimum spacing between global moves of the same proclet. Instantaneous
  // load/free-bytes scores are noisy (queues drain in bursts, queue segments
  // come and go); without a cooldown the rebalancer churns proclets across
  // the threshold every round, and each move's gate-closed window costs the
  // application real time.
  Duration proclet_cooldown = Duration::Millis(500);
  // Skip memory proclets invoked within this window (hot data — a queue's
  // tail, a shard mid-scan): blocking them hurts more than the placement
  // gain, and short-lived proclets drain away on their own.
  Duration memory_hot_window = Duration::Millis(5);
  // Memory scores are free-byte counts; on a nearly-full cluster they are
  // tiny and noisy, so relative thresholds alone still churn. Require at
  // least this much absolute free-byte improvement to move a memory proclet.
  int64_t min_memory_gain_bytes = 64LL * 1024 * 1024;
};

class GlobalRebalancer {
 public:
  GlobalRebalancer(Runtime& rt, GlobalRebalancerConfig config = {});

  void Start();

  // One rebalancing pass (also called by the periodic loop; public for
  // tests and benches that want deterministic rounds).
  Task<int> RebalanceOnce();

  int64_t total_migrations() const { return total_migrations_; }

 private:
  // The machine's PlacementScore for `p`'s kind, read now; `p`'s own
  // presence does not count against its current machine.
  double PlacementOn(const ProcletBase& p, MachineId machine) const;
  // How well `machine` would host `p`, given its PlacementOn score.
  double ScoreOn(const ProcletBase& p, MachineId machine, double placement) const;
  Task<> Loop();

  Runtime& rt_;
  GlobalRebalancerConfig config_;
  int64_t total_migrations_ = 0;
  std::unordered_map<ProcletId, SimTime> last_moved_;
};

}  // namespace quicksand

#endif  // QUICKSAND_SCHED_GLOBAL_REBALANCER_H_
