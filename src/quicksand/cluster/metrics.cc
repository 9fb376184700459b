#include "quicksand/cluster/metrics.h"

#include <algorithm>
#include <string>
#include <utility>

#include "quicksand/health/failure_detector.h"
#include "quicksand/runtime/runtime.h"

namespace quicksand {

const std::vector<MetricInfo>& ExportedMetrics() {
  // Keep rows grouped by source and alphabetical within a group so the
  // generated DESIGN.md table diffs cleanly.
  static const std::vector<MetricInfo> kMetrics = {
      // ClusterMetrics time series ("_m<i>" appended per machine).
      {"autoscale_hot_shards", "ClusterMetrics",
       "shards the skew detector currently flags hot"},
      {"autoscale_shard_count", "ClusterMetrics",
       "serving shards under autoscale control"},
      {"cpu_util", "ClusterMetrics", "CPU busy fraction per sample window"},
      {"mem_util", "ClusterMetrics", "memory utilization, instantaneous"},
      {"memo_cached_bytes", "ClusterMetrics",
       "resident memo-cache footprint, instantaneous"},
      {"memo_hit_rate", "ClusterMetrics",
       "memo hits (fresh + stale) over lookups per sample window"},
      {"serving_goodput_qps", "ClusterMetrics",
       "requests completed within SLO per second, sliding window"},
      {"serving_hot_shard_qps", "ClusterMetrics",
       "hottest shard's arrival rate over the sample period"},
      {"serving_offered_qps", "ClusterMetrics",
       "request arrivals per second, admitted or not"},
      {"serving_p99_us", "ClusterMetrics",
       "p99 latency of completed requests over the SLO window"},
      {"suspected_machines", "ClusterMetrics",
       "machines currently marked suspected (detector attached)"},
      // Autoscaler action counters.
      {"autoscale_deferred", "Autoscaler",
       "reshapes postponed because the copy would blow the SLO"},
      {"autoscale_merges", "Autoscaler", "cold-neighbor merges committed"},
      {"autoscale_migrations", "Autoscaler",
       "whole-shard migrations to idle machines committed"},
      {"autoscale_splits", "Autoscaler", "hot-shard splits committed"},
      // Adaptation time series.
      {"producer_count", "StageScaler",
       "preprocessing proclets live after each scaling round"},
      // Memo tier counters (MemoCache single-flight + directory + harvester).
      {"memo_single_flight_waits", "MemoCache",
       "duplicate invocations that joined an identical in-flight compute"},
      {"memo_evictions", "MemoDirectory",
       "LRU cache entries dropped for capacity"},
      {"memo_harvested_bytes", "MemoDirectory",
       "cache bytes dropped by harvest under pressure"},
      {"memo_hits", "MemoDirectory", "fresh content-addressed cache hits"},
      {"memo_inserts", "MemoDirectory", "results inserted into the cache"},
      {"memo_lost_lookups", "MemoDirectory",
       "lookups that found a dead cache shard"},
      {"memo_misses", "MemoDirectory", "lookups that found nothing servable"},
      {"memo_shard_repairs", "MemoDirectory",
       "lost cache shards lazily recreated on insert"},
      {"memo_stale_hits", "MemoDirectory",
       "bounded-staleness hits returned to callers"},
      {"memo_stale_serves", "MemoDirectory",
       "stale hits actually served to clients in degraded mode"},
      {"memo_harvests", "MemoHarvester",
       "whole-machine cache harvests under revocation"},
      // HealthCounters (detector + runtime fault accounting).
      {"confirmations", "FailureDetector", "suspicions confirmed dead"},
      {"false_suspicions", "FailureDetector",
       "suspicions cleared by a late heartbeat"},
      {"heartbeats_delivered", "FailureDetector",
       "heartbeats that survived the network"},
      {"heartbeats_sent", "FailureDetector", "heartbeats sent by monitors"},
      {"posthumous_heartbeats", "FailureDetector",
       "heartbeats discarded because the sender was already dead"},
      {"suspicions", "FailureDetector", "silence windows that tripped"},
      {"declared_dead", "RuntimeStats",
       "machines fenced out while possibly alive"},
      {"fenced_migrations", "RuntimeStats",
       "migrations rejected on a stale epoch"},
      {"fenced_rpcs", "RuntimeStats",
       "stamped requests rejected by fence guards"},
      // RuntimeStats counters.
      {"bounce_livelocks", "RuntimeStats",
       "invocations that exhausted the bounce loop"},
      {"bounces", "RuntimeStats", "invocations redirected mid-migration"},
      {"checkpoint_bytes", "RuntimeStats",
       "incremental checkpoint bytes shipped"},
      {"crashes", "RuntimeStats", "machine failures observed by the runtime"},
      {"creations", "RuntimeStats", "proclets created"},
      {"deadline_rejected_invocations", "RuntimeStats",
       "invocations refused because the caller's deadline had passed"},
      {"destructions", "RuntimeStats", "proclets destroyed"},
      {"directory_lookups", "RuntimeStats", "location directory RPCs"},
      {"failed_migrations", "RuntimeStats", "migrations that did not commit"},
      {"lazy_copies_completed", "RuntimeStats",
       "background heap copies finished"},
      {"local_invocations", "RuntimeStats", "invocations served on-machine"},
      {"lost_proclets", "RuntimeStats", "proclets whose host died under them"},
      {"migrations", "RuntimeStats", "migrations committed"},
      {"remote_invocations", "RuntimeStats", "invocations served over the wire"},
      {"response_retransmits", "RuntimeStats",
       "response legs resent after a drop"},
      {"restored_proclets", "RuntimeStats",
       "lost proclets brought back by recovery"},
      {"shed_invocations", "RuntimeStats",
       "invocations refused by admission control at the target"},
      {"stale_reads", "RuntimeStats",
       "degraded-mode reads served from a replication backup"},
      {"undelivered_invocations", "RuntimeStats",
       "request legs eaten by the network"},
      {"undelivered_lookups", "RuntimeStats",
       "directory RPCs eaten by the network"},
      {"unreachable_invocations", "RuntimeStats",
       "invocations that gave up on the network"},
      // RuntimeStats latency histograms.
      {"lazy_copy_latency", "RuntimeStats",
       "background copy completion time for lazy migrations"},
      {"migration_latency", "RuntimeStats",
       "gate-closed window per migration (caller-visible)"},
      {"remote_invoke_latency", "RuntimeStats",
       "round-trip latency of remote invocations"},
  };
  return kMetrics;
}

bool IsSnakeCaseMetricName(const std::string& name) {
  if (name.empty() || name.front() == '_' || name.back() == '_') {
    return false;
  }
  if (name.front() >= '0' && name.front() <= '9') {
    return false;
  }
  bool prev_underscore = false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) {
      return false;
    }
    if (c == '_' && prev_underscore) {
      return false;  // no "__" runs
    }
    prev_underscore = (c == '_');
  }
  return true;
}

void ClusterMetrics::Start() {
  cpu_series_.clear();
  mem_series_.clear();
  for (size_t i = 0; i < cluster_.size(); ++i) {
    cpu_series_.emplace_back("cpu_util_m" + std::to_string(i));
    mem_series_.emplace_back("mem_util_m" + std::to_string(i));
  }
  sim_.Spawn(SampleLoop(), "cluster_metrics");
}

HealthCounters ClusterMetrics::CollectHealth(
    const RuntimeStats& rt_stats) const {
  HealthCounters out;
  if (detector_ != nullptr) {
    out.heartbeats_sent = detector_->heartbeats_sent();
    out.heartbeats_delivered = detector_->heartbeats_delivered();
    out.posthumous_heartbeats = detector_->posthumous_heartbeats();
    out.suspicions = detector_->suspicions();
    out.false_suspicions = detector_->false_suspicions();
    out.confirmations = detector_->confirmations();
  }
  out.declared_dead = rt_stats.declared_dead;
  out.fenced_migrations = rt_stats.fenced_migrations;
  out.fenced_rpcs = rt_stats.fenced_rpcs;
  return out;
}

Task<> ClusterMetrics::SampleLoop() {
  std::vector<Duration> last_busy(cluster_.size(), Duration::Zero());
  std::vector<SimTime> last_time(cluster_.size(), sim_.Now());
  for (;;) {
    co_await sim_.Sleep(period_);
    for (MachineId id = 0; id < cluster_.size(); ++id) {
      Machine& m = cluster_.machine(id);
      cpu_series_[id].Record(sim_.Now(),
                             m.cpu().UtilizationSince(last_time[id], last_busy[id]));
      mem_series_[id].Record(sim_.Now(), m.memory().utilization());
      last_busy[id] = m.cpu().TotalBusy();
      last_time[id] = sim_.Now();
    }
    if (detector_ != nullptr) {
      int64_t suspected = 0;
      for (MachineId id = 0; id < cluster_.size(); ++id) {
        if (cluster_.machine(id).suspected()) {
          ++suspected;
        }
      }
      suspected_series_.Record(sim_.Now(), static_cast<double>(suspected));
    }
    if (serving_ != nullptr) {
      const ServingSample s = serving_->SampleServing(sim_.Now());
      serving_offered_series_.Record(sim_.Now(), s.offered_qps);
      serving_goodput_series_.Record(sim_.Now(), s.goodput_qps);
      serving_p99_series_.Record(sim_.Now(),
                                 static_cast<double>(s.p99.nanos()) / 1e3);
      if (!s.shards.empty()) {
        // Hottest shard's arrival rate: difference each shard's cumulative
        // arrivals against the previous sample (new shards count from 0 —
        // a just-split shard's first period is partial by construction).
        const double period_s =
            static_cast<double>(period_.nanos()) / 1e9;
        double hottest = 0.0;
        std::vector<std::pair<uint64_t, int64_t>> current;
        current.reserve(s.shards.size());
        for (const ShardServingSample& shard : s.shards) {
          int64_t last = 0;
          for (const auto& [proclet, arrivals] : last_shard_arrivals_) {
            if (proclet == shard.proclet) {
              last = arrivals;
              break;
            }
          }
          const double rate =
              static_cast<double>(shard.arrivals_total - last) / period_s;
          hottest = std::max(hottest, rate);
          current.emplace_back(shard.proclet, shard.arrivals_total);
        }
        last_shard_arrivals_ = std::move(current);
        serving_hot_shard_series_.Record(sim_.Now(), hottest);
      }
    }
    if (autoscale_ != nullptr) {
      const AutoscaleSample a = autoscale_->SampleAutoscale(sim_.Now());
      autoscale_shard_count_series_.Record(
          sim_.Now(), static_cast<double>(a.shard_count));
      autoscale_hot_shards_series_.Record(sim_.Now(),
                                          static_cast<double>(a.hot_shards));
    }
    if (memo_ != nullptr) {
      const MemoSample m = memo_->SampleMemo(sim_.Now());
      const int64_t lookups =
          m.hits_total + m.stale_hits_total + m.misses_total;
      const int64_t window_lookups = lookups - last_memo_lookups_;
      const int64_t window_hits =
          (m.hits_total + m.stale_hits_total) - last_memo_hits_;
      memo_hit_rate_series_.Record(
          sim_.Now(), window_lookups > 0
                          ? static_cast<double>(window_hits) / window_lookups
                          : 0.0);
      memo_cached_bytes_series_.Record(sim_.Now(),
                                       static_cast<double>(m.cached_bytes));
      last_memo_lookups_ = lookups;
      last_memo_hits_ = m.hits_total + m.stale_hits_total;
    }
  }
}

}  // namespace quicksand
