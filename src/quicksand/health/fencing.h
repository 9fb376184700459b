// FenceGuard: per-proclet epoch fencing plus at-least-once request dedup.
//
// Every proclet carries an epoch that the Runtime bumps on each directory
// rebind (migration flip, restore adoption). A client stamps requests with
// the epoch it resolved; the owning proclet admits a request only when that
// stamp matches its own epoch. This is the fencing-token pattern: after a
// partition-induced failover, the old primary's epoch is stale, so any
// write it still tries to serve — or any client request still addressed to
// the old incarnation — is rejected instead of silently double-applied.
//
// Orthogonally, retried requests carry a stable request id; the guard
// remembers executed ids so an at-least-once retry whose first attempt DID
// land (the ack was what got lost) is answered without re-applying. The
// executed set is part of the proclet's durable state: replicate it in the
// mutation log (Witness in the replay closure) and a promoted backup
// inherits exactly the dedup knowledge its primary had acked.
//
// The executed set is a sorted, duplicate-free vector, because reshaping
// moves it whole: a split copies it into the new shard and a merge unions
// two of them, so a copy is one allocation plus a memcpy and a union is one
// linear merge, where a hash set would rehash every id. One frontend draws
// its ids from one counter, so a shard sees them nearly ascending: most
// inserts append, and a late id (a write that lost a race to a newer one)
// is placed by binary search and moves the tail behind it. A late id is
// not a duplicate, so no watermark can stand in for the set. The set is
// never pruned: it grows by one id per applied write.
//
// The guard is a plain value type so proclets embed it and state images
// copy it; a copy costs one allocation plus 8 B of memcpy per remembered id
// (a reshape payload prices it at 16 B per id on the wire). It does no I/O
// and knows nothing about the Runtime. It exposes no iteration, so the
// set's order cannot reach any result.

#ifndef QUICKSAND_HEALTH_FENCING_H_
#define QUICKSAND_HEALTH_FENCING_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace quicksand {

class FenceGuard {
 public:
  enum class Admit {
    kExecute,    // fresh request at the current epoch: apply it
    kDuplicate,  // already executed (retry after a lost ack): re-ack only
    kFenced,     // stale epoch: reject, the caller must re-resolve
  };

  // Grades a request stamped (caller_epoch, request_id) against the owner's
  // current epoch. Records the id as executed only when admitting.
  Admit AdmitRequest(uint64_t caller_epoch, uint64_t current_epoch,
                     uint64_t request_id) {
    if (caller_epoch != current_epoch) {
      ++fenced_;
      return Admit::kFenced;
    }
    if (!Insert(request_id)) {
      ++duplicates_;
      return Admit::kDuplicate;
    }
    ++admitted_;
    return Admit::kExecute;
  }

  // Records an id as executed without grading — used when replaying the
  // mutation log into a backup, so the replica dedups the same retries its
  // primary would have.
  void Witness(uint64_t request_id) { Insert(request_id); }

  // Unions another guard's executed set into this one — the merge-side twin
  // of the copy a split hands its new shard. After two shards merge, the
  // survivor must dedup every retry either predecessor had acked; after a
  // split, both sides carry the donor's full dedup knowledge (over-remembering
  // is safe, forgetting is a double-apply). Taken by value so a caller that
  // is done with `other` can move it in: an empty guard (a split's fresh
  // shard) then takes the ids without copying them. The counters stay this
  // guard's own.
  void Absorb(FenceGuard other) {
    if (executed_.empty()) {
      executed_ = std::move(other.executed_);
      return;
    }
    std::vector<uint64_t> merged;
    merged.reserve(executed_.size() + other.executed_.size());
    std::set_union(executed_.begin(), executed_.end(),
                   other.executed_.begin(), other.executed_.end(),
                   std::back_inserter(merged));
    executed_ = std::move(merged);
  }

  // Executed ids retained — sizes the dedup state a reshape must ship.
  size_t executed_count() const { return executed_.size(); }

  bool Executed(uint64_t request_id) const {
    return std::binary_search(executed_.begin(), executed_.end(), request_id);
  }

  int64_t admitted() const { return admitted_; }
  int64_t duplicates() const { return duplicates_; }
  int64_t fenced() const { return fenced_; }

 private:
  // Adds an id in order; false if it was already executed. An id above the
  // largest appends, any other is placed by binary search.
  bool Insert(uint64_t request_id) {
    if (executed_.empty() || request_id > executed_.back()) {
      executed_.push_back(request_id);
      return true;
    }
    const auto at =
        std::lower_bound(executed_.begin(), executed_.end(), request_id);
    if (*at == request_id) {
      return false;
    }
    executed_.insert(at, request_id);
    return true;
  }

  std::vector<uint64_t> executed_;  // sorted ascending, no duplicates
  int64_t admitted_ = 0;
  int64_t duplicates_ = 0;
  int64_t fenced_ = 0;
};

}  // namespace quicksand

#endif  // QUICKSAND_HEALTH_FENCING_H_
