// FencedKvProclet: a replicable key/value proclet whose writes carry
// fencing tokens and request ids (health/fencing.h).
//
// This is the proclet-side half of partition-safe at-least-once RPC:
//
//  * every Put is stamped with (caller_epoch, request_id). The embedded
//    FenceGuard rejects stamps from a stale epoch — after a failover the
//    old incarnation's clients (or the old primary itself, gray-failed
//    behind a partition) cannot double-apply a write,
//  * retried Puts whose first attempt landed (only the ack was lost) are
//    answered as duplicates without re-applying — callers get effectively
//    exactly-once semantics from at-least-once retries,
//  * the mutation log replays through ApplyReplicated, which Witnesses the
//    request id on the backup: a promoted backup inherits precisely the
//    dedup knowledge its primary had acked, so retries that straddle a
//    failover still dedup correctly.
//
// Each shard owns a half-open range of the HASH space [hash_begin,
// hash_end): a frontend routes key k by KvShardHash(k), and the shard
// refuses keys it does not own (wrong_shard on Put, OutOfRange on Get)
// so a client racing a split/merge re-routes instead of writing into the
// wrong shard. ExtractUpperRange / ExtractAll / AdoptPayload /
// AbsorbRightNeighbor are the split/merge hooks the reshape protocol
// (sharding/reshape.h) drives; the payload carries the donor's full
// FenceGuard so dedup knowledge survives reshaping (a retry of an
// acked-but-lost-ack write must dedup on whichever shard owns the key NOW).
//
// ApplyCount(key) exposes how many times a key's write was applied, letting
// tests assert exactly-once end to end under injected loss and reshapes.

#ifndef QUICKSAND_PROCLET_FENCED_KV_PROCLET_H_
#define QUICKSAND_PROCLET_FENCED_KV_PROCLET_H_

#include <any>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "quicksand/common/status.h"
#include "quicksand/health/fencing.h"
#include "quicksand/runtime/runtime.h"

namespace quicksand {

// The routing hash: a splitmix64-style finalizer, so consecutive keys spread
// uniformly over the hash space and equal-width shard ranges carry equal key
// populations. Clamped below UINT64_MAX so half-open ranges ending at
// UINT64_MAX cover the whole space.
inline uint64_t KvShardHash(uint64_t key) {
  uint64_t h = key + 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h == UINT64_MAX ? UINT64_MAX - 1 : h;
}

class FencedKvProclet : public ProcletBase {
 public:
  static constexpr ProcletKind kKind = ProcletKind::kMemory;

  // Trivially copyable: usable directly as an Invoke return value.
  struct PutResult {
    bool applied = false;     // fresh write, state mutated
    bool duplicate = false;   // request id already executed; state untouched
    bool fenced = false;      // stale epoch (or fenced incarnation); rejected
    bool wrong_shard = false; // key left this shard's range (raced a reshape);
                              // checked before dedup, so the rid is NOT burned
  };

  // Everything one side of a split/merge hands the other. Moves the kv
  // entries and their apply counts, and COPIES the donor's dedup knowledge:
  // both halves remembering every acked rid is safe, either half forgetting
  // one is a double-apply.
  struct SplitPayload {
    uint64_t range_begin = 0;  // hash range the entries cover
    uint64_t range_end = 0;
    std::map<uint64_t, int64_t> kv;
    std::map<uint64_t, int64_t> applies;
    FenceGuard guard;
    int64_t total_bytes = 0;  // wire size: entries + dedup state
  };

  explicit FencedKvProclet(const ProcletInit& init)
      : FencedKvProclet(init, 0, UINT64_MAX) {}

  // A shard owning only [hash_begin, hash_end) of the hash space.
  FencedKvProclet(const ProcletInit& init, uint64_t hash_begin,
                  uint64_t hash_end)
      : ProcletBase(init), hash_begin_(hash_begin), hash_end_(hash_end) {}

  bool Owns(uint64_t key) const {
    const uint64_t h = KvShardHash(key);
    return h >= hash_begin_ && h < hash_end_;
  }

  // Applies `key = value` iff the key is ours, the stamp is current, and the
  // request id is new. All-false result means the host was out of memory
  // (the id is burned in that case — the caller must retry with a fresh
  // one). wrong_shard never burns the id: the retry lands on the new owner.
  PutResult Put(uint64_t caller_epoch, uint64_t request_id, uint64_t key,
                int64_t value) {
    PutResult out;
    if (!Owns(key)) {
      out.wrong_shard = true;
      return out;
    }
    if (fenced()) {
      runtime().NoteFencedRpc(id(), static_cast<int64_t>(request_id));
      out.fenced = true;
      return out;
    }
    switch (guard_.AdmitRequest(caller_epoch, epoch(), request_id)) {
      case FenceGuard::Admit::kFenced:
        runtime().NoteFencedRpc(id(), static_cast<int64_t>(request_id));
        out.fenced = true;
        return out;
      case FenceGuard::Admit::kDuplicate:
        out.duplicate = true;
        return out;
      case FenceGuard::Admit::kExecute:
        break;
    }
    if (kv_.find(key) == kv_.end() && !TryChargeHeap(kEntryBytes)) {
      return out;
    }
    runtime().NoteCommittedRpc(id(), static_cast<int64_t>(request_id));
    kv_[key] = value;
    ++applies_[key];
    RecordMutation(
        [request_id, key, value](ProcletBase& b) {
          return static_cast<FencedKvProclet&>(b).ApplyReplicated(request_id,
                                                                  key, value);
        },
        kEntryBytes);
    out.applied = true;
    return out;
  }

  Result<int64_t> Get(uint64_t key) const {
    if (!Owns(key)) {
      return Status::OutOfRange("key is outside this shard's range");
    }
    auto it = kv_.find(key);
    if (it == kv_.end()) {
      return Status::NotFound("no such key");
    }
    return it->second;
  }

  // How many times a write actually mutated this key — the exactly-once
  // assertion hook: retried acked writes must leave this at 1.
  int64_t ApplyCount(uint64_t key) const {
    auto it = applies_.find(key);
    return it == applies_.end() ? 0 : it->second;
  }

  size_t size() const { return kv_.size(); }
  const FenceGuard& guard() const { return guard_; }
  uint64_t range_begin() const { return hash_begin_; }
  uint64_t range_end() const { return hash_end_; }

  // Wire size of the shard's contents — what a whole-shard move must copy.
  int64_t data_bytes() const {
    return static_cast<int64_t>(kv_.size()) * kEntryBytes +
           static_cast<int64_t>(guard_.executed_count()) * kGuardEntryBytes;
  }

  // --- Split/merge hooks (call only under a closed maintenance gate) --------

  // Splits off [split_point, hash_end): entries whose hash lands there move
  // into the payload, this shard shrinks to [hash_begin, split_point), and
  // the payload carries a full COPY of the dedup state. The released heap is
  // credited back here; AdoptPayload charges it at the destination.
  SplitPayload ExtractUpperRange(uint64_t split_point) {
    QS_CHECK(split_point > hash_begin_ && split_point < hash_end_);
    SplitPayload out;
    out.range_begin = split_point;
    out.range_end = hash_end_;
    out.guard = guard_;
    for (auto it = kv_.begin(); it != kv_.end();) {
      if (KvShardHash(it->first) >= split_point) {
        out.kv.insert(*it);
        auto applied = applies_.find(it->first);
        if (applied != applies_.end()) {
          out.applies.insert(*applied);
          applies_.erase(applied);
        }
        it = kv_.erase(it);
      } else {
        ++it;
      }
    }
    hash_end_ = split_point;
    const int64_t entry_bytes =
        static_cast<int64_t>(out.kv.size()) * kEntryBytes;
    ReleaseHeap(entry_bytes);
    out.total_bytes = entry_bytes + static_cast<int64_t>(
        out.guard.executed_count()) * kGuardEntryBytes;
    return out;
  }

  // Empties the shard entirely (merge donor): the range collapses to empty
  // so a racing request re-routes rather than resurrecting entries here.
  SplitPayload ExtractAll() {
    SplitPayload out;
    out.range_begin = hash_begin_;
    out.range_end = hash_end_;
    out.kv = std::move(kv_);
    out.applies = std::move(applies_);
    out.guard = guard_;
    kv_.clear();
    applies_.clear();
    hash_end_ = hash_begin_;
    const int64_t entry_bytes =
        static_cast<int64_t>(out.kv.size()) * kEntryBytes;
    ReleaseHeap(entry_bytes);
    out.total_bytes = entry_bytes + static_cast<int64_t>(
        out.guard.executed_count()) * kGuardEntryBytes;
    return out;
  }

  // Installs a payload into a fresh shard (or restores one during a merge
  // rollback): takes ownership of exactly the payload's range. Fails without
  // mutating anything if the heap charge does not fit.
  Status AdoptPayload(SplitPayload&& payload) {
    const Status charged = ChargeFor(payload);
    if (!charged.ok()) {
      return charged;
    }
    hash_begin_ = payload.range_begin;
    hash_end_ = payload.range_end;
    Install(std::move(payload));
    return Status::Ok();
  }

  // Absorbs a right-adjacent payload (merge, or split rollback): extends
  // this shard's range to the payload's end.
  Status AbsorbRightNeighbor(SplitPayload&& payload) {
    if (payload.range_begin != hash_end_) {
      return Status::FailedPrecondition("payload is not right-adjacent");
    }
    const Status charged = ChargeFor(payload);
    if (!charged.ok()) {
      return charged;
    }
    hash_end_ = payload.range_end;
    Install(std::move(payload));
    return Status::Ok();
  }

  // --- Durability -----------------------------------------------------------

  std::optional<StateImage> CaptureState() const override {
    KvImage image{kv_, applies_, guard_, heap_bytes(), hash_begin_, hash_end_};
    return StateImage{std::any(std::move(image)), heap_bytes()};
  }

  Status RestoreState(const StateImage& image) override {
    const KvImage* kv = std::any_cast<KvImage>(&image.data);
    if (kv == nullptr) {
      return Status::InvalidArgument("image is not a FencedKvProclet image");
    }
    if (!TryChargeHeap(kv->heap_bytes)) {
      return Status::ResourceExhausted("restore target is out of memory");
    }
    kv_ = kv->kv;
    applies_ = kv->applies;
    guard_ = kv->guard;
    hash_begin_ = kv->hash_begin;
    hash_end_ = kv->hash_end;
    return Status::Ok();
  }

 private:
  struct KvImage {
    std::map<uint64_t, int64_t> kv;
    std::map<uint64_t, int64_t> applies;
    FenceGuard guard;
    int64_t heap_bytes = 0;
    uint64_t hash_begin = 0;
    uint64_t hash_end = UINT64_MAX;
  };

  // Wire/heap size of one entry (key + value + log header).
  static constexpr int64_t kEntryBytes = 64;
  // Wire size of one executed request id in a shipped dedup set.
  static constexpr int64_t kGuardEntryBytes = 16;

  Status ChargeFor(const SplitPayload& payload) {
    int64_t fresh = 0;
    for (const auto& [key, value] : payload.kv) {
      if (kv_.find(key) == kv_.end()) {
        fresh += kEntryBytes;
      }
    }
    if (!TryChargeHeap(fresh)) {
      return Status::ResourceExhausted("reshape target is out of memory");
    }
    return Status::Ok();
  }

  void Install(SplitPayload&& payload) {
    for (auto& [key, value] : payload.kv) {
      kv_[key] = value;
    }
    for (auto& [key, count] : payload.applies) {
      applies_[key] += count;
    }
    guard_.Absorb(payload.guard);
  }

  // Log replay target: applies on the backup AND witnesses the request id,
  // so the replica dedups the same retries its primary acked. Overwrite
  // semantics keep replayed batches idempotent at the value level; the
  // witness check keeps the APPLY COUNT honest under batch re-replay.
  Status ApplyReplicated(uint64_t request_id, uint64_t key, int64_t value) {
    if (guard_.Executed(request_id)) {
      return Status::Ok();  // already replayed (repeated batch)
    }
    guard_.Witness(request_id);
    if (kv_.find(key) == kv_.end() && !TryChargeHeap(kEntryBytes)) {
      return Status::ResourceExhausted("backup host is out of memory");
    }
    kv_[key] = value;
    ++applies_[key];
    return Status::Ok();
  }

  std::map<uint64_t, int64_t> kv_;
  std::map<uint64_t, int64_t> applies_;  // key -> times actually mutated
  FenceGuard guard_;
  uint64_t hash_begin_ = 0;
  uint64_t hash_end_ = UINT64_MAX;  // half-open; KvShardHash never returns MAX
};

}  // namespace quicksand

#endif  // QUICKSAND_PROCLET_FENCED_KV_PROCLET_H_
