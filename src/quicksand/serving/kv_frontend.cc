#include "quicksand/serving/kv_frontend.h"

#include <algorithm>
#include <utility>

#include "quicksand/overload/admission.h"

namespace quicksand {

namespace {

// Function id for memoized Get(key) results (see memo_key.h); any constant
// works as long as no other memoized function in the process shares it.
constexpr uint64_t kMemoFnKvGet = 0x6b76'6765'74ull;  // "kvget"

}  // namespace

KvFrontend::KvFrontend(Runtime& rt, KvFrontendOptions options)
    : rt_(rt),
      options_(options),
      budget_(options.budget),
      latency_(options.stats_window),
      arrivals_(options.stats_window),
      goodput_(options.stats_window) {
  QS_CHECK(options_.shards >= 1);
  QS_CHECK(options_.max_attempts >= 1);
}

Task<Status> KvFrontend::Start(Ctx ctx) {
  // Shards live off the frontend's machine when the cluster allows it, so
  // serving work and request generation do not contend for the same cores.
  std::vector<MachineId> hosts;
  for (MachineId m = 0; m < rt_.cluster().size(); ++m) {
    if (m != options_.home && !rt_.cluster().machine(m).failed()) {
      hosts.push_back(m);
    }
  }
  // Equal slices of the hash space; KvShardHash spreads keys uniformly, so
  // equal hash width is equal expected load at uniform key popularity.
  const uint64_t width = UINT64_MAX / static_cast<uint64_t>(options_.shards);
  for (int i = 0; i < options_.shards; ++i) {
    const uint64_t begin = width * static_cast<uint64_t>(i);
    const uint64_t end = (i + 1 == options_.shards)
                             ? UINT64_MAX
                             : width * static_cast<uint64_t>(i + 1);
    PlacementRequest req;
    req.heap_bytes = options_.shard_heap_bytes;
    if (!hosts.empty()) {
      req.pinned = hosts[static_cast<size_t>(i) % hosts.size()];
    }
    auto create = rt_.Create<FencedKvProclet>(ctx, req, begin, end);
    Result<Ref<FencedKvProclet>> shard = co_await std::move(create);
    if (!shard.ok()) {
      co_return shard.status();
    }
    table_.push_back(ShardEntry{begin, end, *shard});
    if (replication_ != nullptr) {
      auto replicate =
          replication_->ReplicateAs<FencedKvProclet>(ctx, shard->id());
      const Status replicated = co_await std::move(replicate);
      if (!replicated.ok()) {
        co_return replicated;
      }
    }
  }
  RebuildShardRefs();
  co_return Status::Ok();
}

const KvFrontend::ShardEntry& KvFrontend::Route(uint64_t hash) const {
  QS_CHECK(!table_.empty());
  // Last row whose begin <= hash; the table is sorted and covers the space.
  auto it = std::upper_bound(
      table_.begin(), table_.end(), hash,
      [](uint64_t h, const ShardEntry& e) { return h < e.begin; });
  QS_CHECK(it != table_.begin());
  return *(it - 1);
}

size_t KvFrontend::EntryIndexOf(ProcletId shard) const {
  for (size_t i = 0; i < table_.size(); ++i) {
    if (table_[i].ref.id() == shard) {
      return i;
    }
  }
  return table_.size();
}

void KvFrontend::RebuildShardRefs() {
  shards_.clear();
  shards_.reserve(table_.size());
  for (const ShardEntry& e : table_) {
    shards_.push_back(e.ref);
  }
}

void KvFrontend::NoteRouted(ProcletId shard, uint64_t hash) {
  ShardStats& s = shard_stats_[shard];
  ++s.arrivals;
  if (s.recent.size() < kRecentHashes) {
    s.recent.push_back(hash);
  } else {
    s.recent[s.recent_next] = hash;
    s.recent_next = (s.recent_next + 1) % kRecentHashes;
  }
}

Task<KvFrontend::Attempt> KvFrontend::TryOnce(Ctx ctx,
                                              Ref<FencedKvProclet> shard,
                                              uint64_t rid, uint64_t key,
                                              bool is_read,
                                              std::optional<Result<int64_t>>* read_result) {
  // Epoch is re-resolved per attempt (the stamp must be current); the rid is
  // stable across attempts, so a retry of an acked-but-unacknowledged write
  // dedups at the shard — wherever a reshape has since moved the key.
  const uint64_t epoch = rt_.EpochOf(shard.id());
  if (epoch == 0) {
    co_return Attempt::kRetryable;  // mid-rebind; resolve again after backoff
  }
  Runtime& rt = rt_;
  const Duration svc = options_.service_time;
  Attempt outcome = Attempt::kFatal;
  try {
    if (is_read) {
      auto call = shard.TryCall(
          ctx,
          [&rt, svc, key](FencedKvProclet& p) -> Task<Result<int64_t>> {
            co_await rt.cluster().machine(p.location()).cpu().Run(
                svc, kPriorityNormal);
            co_return p.Get(key);
          },
          options_.request_bytes);
      const Result<Result<int64_t>> got = co_await std::move(call);
      // NotFound (cold key) is still a served request; OutOfRange means the
      // key's range left this shard mid-flight (raced a reshape): re-route.
      if (!got.ok()) {
        outcome = Refused(got.status());
      } else if (!got->ok() && got->status().code() == StatusCode::kOutOfRange) {
        outcome = Attempt::kMoved;
      } else {
        outcome = Attempt::kOk;
        if (read_result != nullptr) {
          *read_result = *got;  // ok or NotFound — both are cacheable answers
        }
      }
    } else {
      const int64_t value = static_cast<int64_t>(key) * 31 + 7;
      auto call = shard.TryCall(
          ctx,
          [&rt, svc, epoch, rid, key,
           value](FencedKvProclet& p) -> Task<FencedKvProclet::PutResult> {
            co_await rt.cluster().machine(p.location()).cpu().Run(
                svc, kPriorityNormal);
            co_return p.Put(epoch, rid, key, value);
          },
          options_.request_bytes);
      const Result<FencedKvProclet::PutResult> put = co_await std::move(call);
      if (!put.ok()) {
        outcome = Refused(put.status());
      } else if (put->applied || put->duplicate) {
        outcome = Attempt::kOk;
      } else if (put->wrong_shard) {
        outcome = Attempt::kMoved;  // raced a reshape; the rid is NOT burned
      } else if (put->fenced) {
        outcome = Attempt::kRetryable;  // epoch moved between resolve and run
      } else {
        outcome = Attempt::kFatal;  // shard out of memory; the rid is burned
      }
    }
  } catch (const ProcletUnreachableError&) {
    outcome = Attempt::kRetryable;
  } catch (const ProcletLostError&) {
    outcome = Attempt::kRetryable;  // recovery may restore it
  } catch (const ProcletGoneError&) {
    outcome = Attempt::kMoved;  // merged away; the table has the survivor
  }
  co_return outcome;
}

Task<bool> KvFrontend::TryStaleRead(Ctx ctx, Ref<FencedKvProclet> shard,
                                    uint64_t key) {
  auto stale = replication_->ReadStale<FencedKvProclet>(
      ctx, shard.id(), options_.max_staleness,
      [key](const FencedKvProclet& p) { return p.Get(key); });
  const Result<Result<int64_t>> got = co_await std::move(stale);
  // Inner NotFound is a served answer (the key is cold on the primary too,
  // up to staleness); only transport/staleness failures count as misses.
  co_return got.ok();
}

MemoKey KvFrontend::MemoKeyFor(uint64_t key) const {
  return MemoKeyBuilder().Fn(kMemoFnKvGet).U64(key).Build(VersionOf(key));
}

uint64_t KvFrontend::VersionOf(uint64_t key) const {
  auto it = key_version_.find(key);
  return it == key_version_.end() ? 0 : it->second;
}

bool KvFrontend::UnderPressure(MachineId shard_host) {
  if (AdmissionController* admission = rt_.admission();
      admission != nullptr && admission->Overloaded(shard_host)) {
    return true;
  }
  const SimTime now = rt_.sim().Now();
  if (now - slo_checked_ >= Duration::Millis(1)) {
    slo_checked_ = now;
    const LatencyHistogram merged = latency_.Merged(now);
    slo_violated_ = merged.count() >= 32 && merged.Percentile(99) > options_.slo;
  }
  return slo_violated_;
}

void KvFrontend::RecordSuccess(SimTime arrival) {
  const SimTime now = rt_.sim().Now();
  const Duration elapsed = now - arrival;
  latency_.Add(now, elapsed);
  if (elapsed <= options_.slo) {
    ++ok_in_slo_;
    goodput_.Add(now, elapsed);
  } else {
    ++ok_late_;
  }
}

Task<> KvFrontend::Serve(uint64_t key, bool is_read) {
  auto detailed = ServeDetailed(key, is_read);
  (void)co_await std::move(detailed);
}

Task<bool> KvFrontend::ServeDetailed(uint64_t key, bool is_read) {
  const SimTime arrival = rt_.sim().Now();
  ++offered_;
  arrivals_.Add(arrival, Duration::Nanos(1));
  Ctx ctx = rt_.CtxOn(options_.home);
  if (options_.deadline_propagation) {
    ctx.trace = ctx.trace.WithDeadline(arrival + options_.slo);
  }
  const uint64_t rid = next_rid_++;
  const uint64_t hash = KvShardHash(key);
  const bool memo_active = memo_ != nullptr && options_.memo_reads && is_read;
  if (!is_read && memo_ != nullptr) {
    // A write is now in flight: entries cached under older salts must stop
    // being fresh before the write can apply anywhere.
    BumpVersion(key);
  }
  if (memo_active) {
    // Fresh hits serve unconditionally (that is the cache working); stale
    // hits serve only in degraded mode — under pressure, an approximate
    // answer beats queueing behind a saturated shard or being shed.
    const Duration staleness =
        UnderPressure(rt_.LocationOf(Route(hash).ref.id()))
            ? options_.memo_staleness
            : Duration::Zero();
    auto look = memo_->Lookup(ctx, MemoKeyFor(key), staleness);
    const MemoLookup hit = co_await std::move(look);
    if (hit.outcome == MemoOutcome::kFreshHit) {
      ++memo_serves_;
      RecordSuccess(arrival);
      co_return true;
    }
    if (hit.outcome == MemoOutcome::kStaleHit) {
      memo_->NoteStaleServe(MemoKeyFor(key));
      ++memo_serves_;
      ++memo_stale_serves_;
      RecordSuccess(arrival);
      co_return true;
    }
  }
  if (options_.retry_budget) {
    budget_.OnAttempt();  // first attempts fund the bucket
  }
  Duration backoff = options_.retry_backoff;
  int moved = 0;
  for (int attempt = 0;; ++attempt) {
    // Route per attempt: a reshape may have changed the key's owner since
    // the last try (or while this attempt waited at a closed gate).
    const Ref<FencedKvProclet> shard = Route(hash).ref;
    NoteRouted(shard.id(), hash);
    std::optional<Result<int64_t>> read_result;
    // Salt captured BEFORE the attempt: any write completing while our read
    // is in flight bumps past this, so the inserted entry can never be
    // fresh under a salt newer than the value it holds.
    const MemoKey attempt_key = memo_active ? MemoKeyFor(key) : MemoKey{};
    auto once = TryOnce(ctx, shard, rid, key, is_read,
                        memo_active ? &read_result : nullptr);
    const Attempt outcome = co_await std::move(once);
    if (!is_read && memo_ != nullptr) {
      // The attempt may have applied at the shard whatever its reported
      // outcome (an ack can be lost after the apply), so nothing cached
      // before this point may ever be served as fresh again. Together with
      // the in-flight bump above this closes the window where a concurrent
      // read caches a pre-apply value under the newest salt.
      BumpVersion(key);
    }
    if (outcome == Attempt::kOk) {
      RecordSuccess(arrival);
      if (memo_active && read_result.has_value()) {
        auto insert = memo_->Insert(ctx, attempt_key, std::any(*read_result),
                                    options_.memo_entry_bytes);
        (void)co_await std::move(insert);
      }
      co_return true;
    }
    if (outcome == Attempt::kMoved) {
      // Not overload: the request raced a reshape. Re-route through the
      // already-updated table without spending a retry token or backing
      // off. The cap breaks loops if routing and ownership ever disagreed.
      ++moved_reroutes_;
      if (++moved > 8) {
        ++failed_;
        co_return false;
      }
      --attempt;
      continue;
    }
    if (outcome == Attempt::kShed) {
      ++sheds_seen_;
      auto stats = shard_stats_.find(shard.id());
      if (stats != shard_stats_.end()) {
        ++stats->second.sheds;
      }
      if (is_read && options_.degraded_reads && replication_ != nullptr) {
        auto fallback = TryStaleRead(ctx, shard, key);
        if (co_await std::move(fallback)) {
          ++stale_fallbacks_;
          RecordSuccess(arrival);
          co_return true;
        }
      }
      if (is_read && memo_ != nullptr && options_.memo_reads &&
          options_.memo_staleness > Duration::Zero()) {
        // A shed IS the pressure signal — allow bounded staleness here even
        // if the pre-attempt lookup ran in fresh-only mode.
        auto look = memo_->Lookup(ctx, MemoKeyFor(key), options_.memo_staleness);
        const MemoLookup hit = co_await std::move(look);
        if (hit.outcome != MemoOutcome::kMiss) {
          if (hit.outcome == MemoOutcome::kStaleHit) {
            memo_->NoteStaleServe(MemoKeyFor(key));
            ++memo_stale_serves_;
          }
          ++memo_serves_;
          RecordSuccess(arrival);
          co_return true;
        }
      }
      // No (or failed) fallback: fall through to the retry gate.
    } else if (outcome == Attempt::kDeadline) {
      // The server already told us the deadline passed; a retry would only
      // arrive deader.
      ++deadline_rejections_seen_;
      ++failed_;
      co_return false;
    } else if (outcome == Attempt::kFatal) {
      ++failed_;
      co_return false;
    }
    if (attempt + 1 >= options_.max_attempts) {
      ++failed_;
      co_return false;
    }
    if (options_.deadline_propagation &&
        rt_.sim().Now() > arrival + options_.slo) {
      ++failed_;  // client-side give-up: nothing sent now can make the SLO
      co_return false;
    }
    if (options_.retry_budget && !budget_.TryAcquireRetry()) {
      ++failed_;
      co_return false;
    }
    ++retries_;
    co_await rt_.sim().Sleep(backoff);
    backoff = std::min(backoff * 2, options_.max_retry_backoff);
  }
}

ServingSample KvFrontend::SampleServing(SimTime now) const {
  ServingSample s;
  const double window_s =
      static_cast<double>(latency_.window().nanos()) / 1e9;
  s.offered_qps = static_cast<double>(arrivals_.Count(now)) / window_s;
  s.goodput_qps = static_cast<double>(goodput_.Count(now)) / window_s;
  const LatencyHistogram merged = latency_.Merged(now);
  if (merged.count() > 0) {
    s.p50 = merged.Percentile(50);
    s.p99 = merged.Percentile(99);
  }
  s.shed_total = sheds_seen_;
  s.deadline_expired_total = deadline_rejections_seen_;
  s.stale_serves_total = stale_fallbacks_;
  s.shards = SampleShards(now);
  return s;
}

// --- ReshapableShardSet -------------------------------------------------------

std::vector<ShardServingSample> KvFrontend::SampleShards(SimTime) const {
  std::vector<ShardServingSample> out;
  out.reserve(table_.size());
  for (const ShardEntry& e : table_) {
    ShardServingSample s;
    s.proclet = e.ref.id();
    s.machine = rt_.LocationOf(e.ref.id());
    s.range_begin = e.begin;
    s.range_end = e.end;
    auto it = shard_stats_.find(e.ref.id());
    if (it != shard_stats_.end()) {
      s.arrivals_total = it->second.arrivals;
      s.sheds_total = it->second.sheds;
    }
    const auto* p = rt_.UnsafeGet<FencedKvProclet>(e.ref.id());
    s.bytes = p != nullptr ? p->data_bytes() : 0;
    out.push_back(s);
  }
  return out;
}

Result<uint64_t> KvFrontend::SuggestSplitPoint(ProcletId shard) const {
  const size_t idx = EntryIndexOf(shard);
  if (idx == table_.size()) {
    return Status::NotFound("no such shard");
  }
  const ShardEntry& e = table_[idx];
  if (e.end - e.begin < 2) {
    return Status::FailedPrecondition("range too narrow to split");
  }
  // Median of the recently routed hashes balances LOAD, not key count: the
  // half-ring above the median (hot keys included) moves to the new shard.
  auto it = shard_stats_.find(shard);
  if (it != shard_stats_.end()) {
    std::vector<uint64_t> hashes;
    hashes.reserve(it->second.recent.size());
    for (uint64_t h : it->second.recent) {
      if (h >= e.begin && h < e.end) {
        hashes.push_back(h);
      }
    }
    if (hashes.size() >= 8) {
      std::sort(hashes.begin(), hashes.end());
      const uint64_t median = hashes[hashes.size() / 2];
      if (median > e.begin && median < e.end) {
        return median;
      }
    }
  }
  return e.begin + (e.end - e.begin) / 2;
}

Task<Status> KvFrontend::SplitShard(Ctx ctx, ProcletId shard,
                                    uint64_t split_point, MachineId target) {
  if (EntryIndexOf(shard) == table_.size()) {
    co_return Status::NotFound("no such shard");
  }
  if (target == options_.home || target >= rt_.cluster().size()) {
    co_return Status::InvalidArgument("bad reshape target");
  }
  if (rt_.cluster().machine(target).failed()) {
    co_return Status::Unavailable("target machine has failed");
  }
  {
    const ShardEntry& e = table_[EntryIndexOf(shard)];
    if (split_point <= e.begin || split_point >= e.end) {
      co_return Status::InvalidArgument("split point outside the range");
    }
  }
  PlacementRequest req;
  req.heap_bytes = options_.shard_heap_bytes;
  req.pinned = target;
  auto split = ReshapeSplit<FencedKvProclet>(
      ctx, shard,
      [split_point](FencedKvProclet&) -> Result<uint64_t> { return split_point; },
      req,
      [this, shard](FencedKvProclet&, FencedKvProclet& fresh,
                    int64_t) -> Task<Status> {
        // Requests queued at the donor re-route through the updated table
        // on their wrong_shard bounce.
        const size_t donor_idx = EntryIndexOf(shard);
        QS_CHECK(donor_idx != table_.size());
        table_[donor_idx].end = fresh.range_begin();
        table_.insert(table_.begin() + donor_idx + 1,
                      ShardEntry{fresh.range_begin(), fresh.range_end(),
                                 Ref<FencedKvProclet>(&rt_, fresh.id())});
        RebuildShardRefs();
        // The donor's recent-hash ring spanned both sides of the cut; drop
        // it so its next split point comes from post-split routing only.
        auto stats = shard_stats_.find(shard);
        if (stats != shard_stats_.end()) {
          stats->second.recent.clear();
          stats->second.recent_next = 0;
        }
        co_return Status::Ok();
      },
      &reshape_stats_, options_.unsafe_reshape_for_test);
  co_return co_await std::move(split);
}

Task<Status> KvFrontend::MergeShards(Ctx ctx, ProcletId left, ProcletId right) {
  const size_t li = EntryIndexOf(left);
  const size_t ri = EntryIndexOf(right);
  if (li == table_.size() || ri == table_.size()) {
    co_return Status::NotFound("no such shard");
  }
  if (ri != li + 1) {
    co_return Status::InvalidArgument("shards are not adjacent");
  }
  auto merge = ReshapeMerge<FencedKvProclet>(
      ctx, left, right,
      [this, left, right](FencedKvProclet&, int64_t) -> Task<Status> {
        const size_t li2 = EntryIndexOf(left);
        QS_CHECK(li2 + 1 < table_.size() && table_[li2 + 1].ref.id() == right);
        table_[li2].end = table_[li2 + 1].end;
        table_.erase(table_.begin() + li2 + 1);
        RebuildShardRefs();
        shard_stats_.erase(right);
        co_return Status::Ok();
      },
      &reshape_stats_, options_.unsafe_reshape_for_test);
  co_return co_await std::move(merge);
}

Task<Status> KvFrontend::MigrateShard(Ctx ctx, ProcletId shard,
                                      MachineId target) {
  (void)ctx;
  if (EntryIndexOf(shard) == table_.size()) {
    co_return Status::NotFound("no such shard");
  }
  if (target == options_.home || target >= rt_.cluster().size()) {
    co_return Status::InvalidArgument("bad reshape target");
  }
  // Fenced move: if the shard rebinds between resolve and execution the
  // migration aborts instead of yanking it from its new incarnation.
  const uint64_t epoch = rt_.EpochOf(shard);
  auto migrate = rt_.Migrate(shard, target, epoch);
  co_return co_await std::move(migrate);
}

bool KvFrontend::TableFullyLive() const {
  for (const ShardEntry& e : table_) {
    if (rt_.IsLost(e.ref.id())) {
      return false;
    }
  }
  return true;
}

Task<int> KvFrontend::RepairLostShards(Ctx ctx) {
  int repaired = 0;
  // Snapshot the ids up front: the table may be edited across the awaits
  // below (by this fiber or a racing reshape), so each entry is re-located
  // by id + range before it is touched.
  std::vector<ProcletId> ids;
  ids.reserve(table_.size());
  for (const ShardEntry& e : table_) {
    ids.push_back(e.ref.id());
  }
  for (const ProcletId id : ids) {
    if (!rt_.IsLost(id)) {
      lost_seen_.erase(id);  // alive, or recovery rebound the same id
      continue;
    }
    const SimTime now = rt_.sim().Now();
    const auto [it, first_sighting] = lost_seen_.try_emplace(id, now);
    if (now - it->second < options_.repair_grace) {
      continue;  // give promotion/restore a chance to rebind the id
    }
    size_t idx = EntryIndexOf(id);
    if (idx == table_.size()) {
      lost_seen_.erase(id);
      continue;  // a racing merge already removed the entry
    }
    const uint64_t begin = table_[idx].begin;
    const uint64_t end = table_[idx].end;
    // Fresh empty replacement on the least-burdened live machine. The dead
    // range's data is gone either way; what repair restores is routing — a
    // table that forever points at a corpse fails every request in range.
    MachineId host = kInvalidMachineId;
    int64_t host_shards = 0;
    for (MachineId m = 0; m < rt_.cluster().size(); ++m) {
      if (m == options_.home || !rt_.cluster().machine(m).accepting() ||
          rt_.MachineConsideredDead(m)) {
        continue;
      }
      int64_t hosted = 0;
      for (const ShardEntry& e : table_) {
        if (!rt_.IsLost(e.ref.id()) && rt_.LocationOf(e.ref.id()) == m) {
          ++hosted;
        }
      }
      if (host == kInvalidMachineId || hosted < host_shards) {
        host = m;
        host_shards = hosted;
      }
    }
    if (host == kInvalidMachineId) {
      continue;  // nowhere live to put it; retry on a later call
    }
    PlacementRequest req;
    req.heap_bytes = options_.shard_heap_bytes;
    req.pinned = host;
    auto create = rt_.Create<FencedKvProclet>(ctx, req, begin, end);
    Result<Ref<FencedKvProclet>> created = co_await std::move(create);
    if (!created.ok()) {
      continue;
    }
    // Re-locate: the entry may have moved (or been merged away) while the
    // create was in flight.
    idx = table_.size();
    for (size_t i = 0; i < table_.size(); ++i) {
      if (table_[i].ref.id() == id && table_[i].begin == begin &&
          table_[i].end == end) {
        idx = i;
        break;
      }
    }
    if (idx == table_.size() || !rt_.IsLost(id)) {
      // The entry changed or the shard came back meanwhile; discard the
      // replacement rather than double-routing the range.
      auto destroy = rt_.Destroy(ctx, created->id());
      (void)co_await std::move(destroy);
      continue;
    }
    table_[idx].ref = *created;
    RebuildShardRefs();
    shard_stats_.erase(id);
    lost_seen_.erase(id);
    ++repairs_;
    ++repaired;
  }
  co_return repaired;
}

}  // namespace quicksand
