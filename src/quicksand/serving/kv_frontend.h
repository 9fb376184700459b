// KvFrontend: a request-serving tier over FencedKvProclet shards, built to
// study overload. Each request gets an end-to-end deadline (the SLO), which
// rides the TraceContext so proclet invocation, the one hop with admission,
// can refuse work that cannot finish in time. The frontend composes all
// four overload-control levers, each independently toggleable so the ab9
// bench can show what each buys:
//
//  * deadline propagation — requests are stamped with arrival + SLO; hops
//    reject dead-on-arrival work at admission,
//  * admission control — attached to the Runtime by the harness; shards
//    shed when their host's run queue stands,
//  * retry budget — retries of shed/unreachable attempts spend tokens
//    funded by first attempts, bounding retry amplification,
//  * degraded reads — a shed read falls back to the replication backup
//    within a bounded staleness, trading freshness for availability.
//
// Under overload, refusals are a large share of the traffic, so the
// frontend calls its shards through Ref::TryCall: a shed or an expired
// deadline comes back as a ResourceExhausted or DeadlineExceeded Result,
// not an exception. Ref::Call still throws them (InvocationSheddedError,
// DeadlineExpiredError) for every other caller.
//
// Sharding is by HASH RANGE: each shard owns [begin, end) of the
// KvShardHash space, and a request routes by binary search over the range
// table. Ranges (unlike the modulo routing this replaced) are splittable,
// which is what lets the autoscale subsystem absorb a flash crowd by
// reshaping instead of shedding: KvFrontend implements ReshapableShardSet,
// so the autoscaler can split a hot shard onto an idle machine, merge cold
// neighbors, or migrate a shard wholesale (bench/ab10). The range table is
// updated synchronously inside each reshape (while the affected gates are
// closed), so a racing request sees at worst one wrong_shard bounce and
// re-routes — never a lost or double-applied write (the reshape property
// test's subject).
//
// Writes are stamped (epoch, request-id) against the shard's FenceGuard:
// the request id is stable across retries, so at-least-once retries stay
// effectively exactly-once, and a shed or deadline-rejected attempt never
// commits (the overload property test's subject). Splits hand the new
// shard a full copy of the donor's dedup state, so the guarantee survives
// reshaping.
//
// Accounting is windowed: goodput and latency quantiles cover a sliding
// window of sim time (WindowedHistogram), so a current overload is visible
// instead of averaged away by a long calm history. Per-shard arrival and
// shed counters feed the autoscaler's hotness signal.
//
// Split and merge run the crash-safe reshape protocol (sharding/reshape.h);
// the frontend supplies only the split point, the target machine, and the
// range-table edit. RepairLostShards is the matching self-healing path for
// ranges whose shard died with its host.

#ifndef QUICKSAND_SERVING_KV_FRONTEND_H_
#define QUICKSAND_SERVING_KV_FRONTEND_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "quicksand/autoscale/shard_set.h"
#include "quicksand/cluster/metrics.h"
#include "quicksand/common/stats.h"
#include "quicksand/durability/replication.h"
#include "quicksand/memo/memo_directory.h"
#include "quicksand/overload/retry_budget.h"
#include "quicksand/proclet/fenced_kv_proclet.h"
#include "quicksand/runtime/runtime.h"
#include "quicksand/sharding/reshape.h"

namespace quicksand {

struct KvFrontendOptions {
  // Initial shard count; the autoscaler may grow or shrink it at runtime.
  int shards = 4;
  // Per-shard heap reservation at creation.
  int64_t shard_heap_bytes = 4 << 20;
  // End-to-end SLO; also the propagated deadline when stamping is on.
  Duration slo = Duration::Millis(2);
  // CPU charged at the shard's host per request (the "work").
  Duration service_time = Duration::Micros(50);
  int64_t request_bytes = 128;
  // Machine the frontend itself runs on (shards are placed elsewhere).
  MachineId home = 0;
  // --- Control toggles (the ab9 bench flips these) --------------------------
  bool deadline_propagation = true;
  bool retry_budget = true;
  // Serve shed reads from the replication backup when one is attached and
  // its staleness bound is within max_staleness.
  bool degraded_reads = false;
  Duration max_staleness = Duration::Millis(10);
  // Memoized reads (requires AttachMemo). Fresh memo hits are always
  // served; STALE hits (bounded by memo_staleness) are served only while
  // the shard's host is under admission pressure or the windowed p99 is
  // outside the SLO — approximation is a degraded mode, not the default.
  // memo_staleness == Zero disables stale serving entirely.
  bool memo_reads = false;
  Duration memo_staleness = Duration::Millis(10);
  // Heap footprint charged per cached entry (models the response object,
  // not just the 8-byte value).
  int64_t memo_entry_bytes = 128;
  // --- Retry schedule -------------------------------------------------------
  int max_attempts = 3;
  Duration retry_backoff = Duration::Micros(100);
  Duration max_retry_backoff = Duration::Millis(5);
  RetryBudgetOptions budget{};
  // Sliding window for goodput/quantile accounting.
  Duration stats_window = Duration::Millis(200);
  // --- Crash safety ---------------------------------------------------------
  // How long RepairLostShards leaves a lost routing entry alone before
  // replacing it with a fresh empty shard: recovery (backup promotion /
  // checkpoint restore) rebinds the SAME proclet id, and replacing too
  // eagerly would orphan a restore already in flight.
  Duration repair_grace = Duration::Millis(2);
  // TEST ONLY: restore the pre-hardening reshape paths, which install
  // extracted payloads without checking whether the destination survived
  // the copy — the crash-mid-reshape data-loss bug the chaos engine exists
  // to catch (bench/ab11_chaos --smoke reintroduces it, finds it with the
  // residency oracle, and shrinks the failing schedule).
  bool unsafe_reshape_for_test = false;
};

class KvFrontend : public ServingStatsSource, public ReshapableShardSet {
 public:
  KvFrontend(Runtime& rt, KvFrontendOptions options);

  KvFrontend(const KvFrontend&) = delete;
  KvFrontend& operator=(const KvFrontend&) = delete;

  // Optional, before Start(): enables degraded reads (with
  // options.degraded_reads) and replicates each shard at startup. Replicated
  // shards are durable and therefore pinned — reshape verbs refuse them.
  void AttachReplication(ReplicationManager* replication) {
    replication_ = replication;
  }

  // Optional, before Start(): enables memoized reads (with
  // options.memo_reads). The directory must be Start()ed by the harness;
  // the frontend only reads and inserts. Writes bump a per-key version
  // salt (at attempt start and completion) so entries cached under older
  // salts stop being fresh — see memo_key.h for the freshness protocol.
  void AttachMemo(MemoDirectory* memo) { memo_ = memo; }

  // Creates the initial shards with equal hash ranges (round-robin over
  // machines other than `home` when the cluster has more than one) and,
  // with replication attached, establishes their backups.
  Task<Status> Start(Ctx ctx);

  // Serves one request end to end: route by hash, resolve epoch, invoke the
  // shard with the deadline-stamped context, retry through the budget, fall
  // back to a stale backup read when degraded. A wrong_shard bounce (the
  // request raced a reshape) re-routes through the updated table without
  // spending a retry token. Never throws; failures are accounted.
  Task<> Serve(uint64_t key, bool is_read);

  // Serve, but reporting whether the request was acked (served in or out of
  // SLO) or failed — the hook chaos/test harnesses use to keep an acked-write
  // ledger. Serve() is this with the outcome dropped.
  Task<bool> ServeDetailed(uint64_t key, bool is_read);

  // --- Crash repair ---------------------------------------------------------

  // Replaces routing entries whose shard was lost to a machine failure and
  // not restored within options.repair_grace: each gets a fresh EMPTY shard
  // covering the same range on a live machine. The lost range's data died
  // with its host (or was already recovered under the same id by the
  // durability layer, in which case the entry is live again and skipped);
  // repair restores AVAILABILITY of the range. Returns entries repaired.
  // Harnesses call this periodically; it is safe to call any time.
  Task<int> RepairLostShards(Ctx ctx);

  // True when every routing entry resolves to a live (non-lost) shard.
  bool TableFullyLive() const;

  // ServingStatsSource.
  ServingSample SampleServing(SimTime now) const override;

  // --- ReshapableShardSet ---------------------------------------------------

  std::vector<ShardServingSample> SampleShards(SimTime now) const override;
  Result<uint64_t> SuggestSplitPoint(ProcletId shard) const override;
  Task<Status> SplitShard(Ctx ctx, ProcletId shard, uint64_t split_point,
                          MachineId target) override;
  Task<Status> MergeShards(Ctx ctx, ProcletId left, ProcletId right) override;
  Task<Status> MigrateShard(Ctx ctx, ProcletId shard,
                            MachineId target) override;
  MachineId home() const override { return options_.home; }

  // --- Introspection --------------------------------------------------------

  int64_t offered() const { return offered_; }
  int64_t ok_in_slo() const { return ok_in_slo_; }
  int64_t ok_late() const { return ok_late_; }
  int64_t failed() const { return failed_; }
  int64_t sheds_seen() const { return sheds_seen_; }
  int64_t deadline_rejections_seen() const { return deadline_rejections_seen_; }
  int64_t stale_fallbacks() const { return stale_fallbacks_; }
  // Requests answered from the memo cache without touching a shard.
  int64_t memo_serves() const { return memo_serves_; }
  // The subset of memo_serves that were bounded-staleness (degraded) hits.
  int64_t memo_stale_serves() const { return memo_stale_serves_; }
  int64_t retries() const { return retries_; }
  // Requests that bounced off a shard mid-reshape and re-routed.
  int64_t moved_reroutes() const { return moved_reroutes_; }
  // Reshape payloads rolled back / discarded; see ReshapeStats.
  int64_t reshape_rollbacks() const { return reshape_stats_.rollbacks; }
  int64_t reshape_payload_discards() const {
    return reshape_stats_.payload_discards;
  }
  // Lost routing entries replaced with fresh shards by RepairLostShards.
  int64_t repairs() const { return repairs_; }
  const RetryBudget& budget() const { return budget_; }
  const WindowedHistogram& latency() const { return latency_; }
  const std::vector<Ref<FencedKvProclet>>& shards() const { return shards_; }
  const KvFrontendOptions& options() const { return options_; }

 private:
  // One routing-table row: the shard owning hash range [begin, end).
  struct ShardEntry {
    uint64_t begin = 0;
    uint64_t end = 0;
    Ref<FencedKvProclet> ref;
  };
  // Per-shard hotness accounting, keyed by shard proclet id.
  struct ShardStats {
    int64_t arrivals = 0;  // attempts routed here (includes re-routes)
    int64_t sheds = 0;     // shed outcomes observed here
    std::vector<uint64_t> recent;  // ring of recently routed hashes
    size_t recent_next = 0;
  };
  static constexpr size_t kRecentHashes = 64;

  // One attempt against the shard; classifies the outcome (Refused maps an
  // admission refusal). On a served read, `read_result` (when non-null)
  // receives the shard's answer — including NotFound: a "no such key"
  // answer is memoized too (negative caching), or reads of never-written
  // keys would miss forever.
  enum class Attempt { kOk, kShed, kDeadline, kRetryable, kMoved, kFatal };
  static Attempt Refused(const Status& refusal) {
    return refusal.code() == StatusCode::kResourceExhausted ? Attempt::kShed
                                                             : Attempt::kDeadline;
  }
  Task<Attempt> TryOnce(Ctx ctx, Ref<FencedKvProclet> shard, uint64_t rid,
                        uint64_t key, bool is_read,
                        std::optional<Result<int64_t>>* read_result = nullptr);
  // Degraded fallback; true when the stale read answered.
  Task<bool> TryStaleRead(Ctx ctx, Ref<FencedKvProclet> shard, uint64_t key);
  void RecordSuccess(SimTime arrival);

  // --- Memoization ----------------------------------------------------------

  // Content-addressed key for Get(key) under the key's current version salt.
  MemoKey MemoKeyFor(uint64_t key) const;
  uint64_t VersionOf(uint64_t key) const;
  void BumpVersion(uint64_t key) { ++key_version_[key]; }
  // Degraded-mode gate for stale memo serving: admission pressure on the
  // shard's host, or the windowed p99 outside the SLO (cached for 1ms —
  // Merged() walks every bucket and this runs per read).
  bool UnderPressure(MachineId shard_host);

  // Routing-table row covering `hash` (the table always covers the space).
  const ShardEntry& Route(uint64_t hash) const;
  // Index into table_ of the row for `shard`, or npos.
  size_t EntryIndexOf(ProcletId shard) const;
  // Keeps shards_ (the flat introspection view) in step with table_.
  void RebuildShardRefs();
  void NoteRouted(ProcletId shard, uint64_t hash);

  Runtime& rt_;
  KvFrontendOptions options_;
  ReplicationManager* replication_ = nullptr;
  MemoDirectory* memo_ = nullptr;
  std::vector<ShardEntry> table_;  // sorted by begin; covers the hash space
  std::vector<Ref<FencedKvProclet>> shards_;  // flat view of table_
  std::unordered_map<ProcletId, ShardStats> shard_stats_;
  RetryBudget budget_;
  uint64_t next_rid_ = 1;

  WindowedHistogram latency_;   // completed requests, any outcome time
  WindowedHistogram arrivals_;  // arrival markers (windowed offered count)
  WindowedHistogram goodput_;   // completions within SLO
  int64_t offered_ = 0;
  int64_t ok_in_slo_ = 0;
  int64_t ok_late_ = 0;
  int64_t failed_ = 0;
  int64_t sheds_seen_ = 0;
  int64_t deadline_rejections_seen_ = 0;
  int64_t stale_fallbacks_ = 0;
  int64_t memo_serves_ = 0;
  int64_t memo_stale_serves_ = 0;
  int64_t retries_ = 0;
  int64_t moved_reroutes_ = 0;
  ReshapeStats reshape_stats_;
  int64_t repairs_ = 0;
  // First time RepairLostShards saw each routing entry's shard lost; the
  // grace clock for replacing it.
  std::unordered_map<ProcletId, SimTime> lost_seen_;
  // Per-key memo version salt; bumped around writes (see AttachMemo).
  std::unordered_map<uint64_t, uint64_t> key_version_;
  // UnderPressure's cached SLO verdict (recomputed at most every 1ms).
  SimTime slo_checked_ = SimTime::Zero();
  bool slo_violated_ = false;
};

}  // namespace quicksand

#endif  // QUICKSAND_SERVING_KV_FRONTEND_H_
