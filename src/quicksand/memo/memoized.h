// MemoCache: content-addressed memoization with single-flight dedup.
//
// GetOrCompute is the whole contract: look the key up in the directory;
// on a servable hit return the cached value; otherwise run `compute`
// exactly once per (salted key, burst) — concurrent identical requests
// park on a SimEvent and share the first caller's result instead of
// duplicating the work — then insert the result for the next caller.
//
// Correctness stance: the cache is transparent for deterministic
// (idempotent, salt-disciplined) functions. A hit returns a value some
// previous identical invocation produced; a single-flight join returns the
// value a concurrent identical invocation is producing. Failures are never
// cached, and a failed leader's joiners get the leader's status — they can
// simply retry (which starts a new flight).
//
// The Memoized(...) wrapper applies this to Ref<P>::Call.

#ifndef QUICKSAND_MEMO_MEMOIZED_H_
#define QUICKSAND_MEMO_MEMOIZED_H_

#include <any>
#include <cstdint>
#include <exception>
#include <memory>
#include <unordered_map>
#include <utility>

#include "quicksand/common/wire.h"
#include "quicksand/memo/memo_directory.h"
#include "quicksand/sim/sync.h"

namespace quicksand {

class MemoCache {
 public:
  MemoCache(Runtime& rt, MemoDirectory& dir) : rt_(rt), dir_(dir) {}

  MemoDirectory& directory() { return dir_; }
  int64_t single_flight_waits() const { return single_flight_waits_; }
  int64_t computes() const { return computes_; }

  // `compute` is () -> Task<Result<T>>. `max_staleness` bounds how old a
  // salt-mismatched entry may be and still be served (Zero = fresh only).
  template <typename T, typename Fn>
  Task<Result<T>> GetOrCompute(Ctx ctx, MemoKey key, Duration max_staleness,
                               Fn compute) {
    {
      auto look = dir_.Lookup(ctx, key, max_staleness);
      MemoLookup hit = co_await std::move(look);
      if (hit.outcome != MemoOutcome::kMiss) {
        // A route-hash collision across result types shows up here as a
        // bad any_cast; treat it as a miss and recompute.
        if (const T* value = std::any_cast<T>(&hit.value)) {
          if (hit.outcome == MemoOutcome::kStaleHit) {
            dir_.NoteStaleServe(key);
          }
          co_return *value;
        }
      }
    }
    if (auto it = inflight_.find(key.salted); it != inflight_.end()) {
      std::shared_ptr<Flight> flight = it->second;
      ++single_flight_waits_;
      co_await flight->done.Wait();
      if (flight->ok) {
        if (const T* value = std::any_cast<T>(&flight->value)) {
          co_return *value;
        }
        co_return Status::Internal("single-flight result type mismatch");
      }
      co_return flight->status;
    }
    auto flight = std::make_shared<Flight>(rt_.sim());
    inflight_.emplace(key.salted, flight);
    ++computes_;
    Result<T> result = Status::Unavailable("memoized compute failed");
    try {
      auto run = compute();
      result = co_await std::move(run);
    } catch (...) {
      inflight_.erase(key.salted);
      flight->status = Status::Unavailable("memoized compute threw");
      flight->done.Set();
      throw;
    }
    if (result.ok()) {
      flight->ok = true;
      flight->value = std::any(*result);
      // Best effort: a failed insert (shard host down, out of memory) just
      // means the next identical call recomputes.
      auto insert = dir_.Insert(ctx, key, std::any(*result), WireSizeOf(*result));
      (void)co_await std::move(insert);
    } else {
      flight->status = result.status();
    }
    inflight_.erase(key.salted);
    flight->done.Set();
    co_return result;
  }

 private:
  struct Flight {
    explicit Flight(Simulator& sim) : done(sim) {}
    SimEvent done;
    bool ok = false;
    std::any value;
    Status status = Status::Unavailable("flight incomplete");
  };

  Runtime& rt_;
  MemoDirectory& dir_;
  std::unordered_map<uint64_t, std::shared_ptr<Flight>> inflight_;
  int64_t single_flight_waits_ = 0;
  int64_t computes_ = 0;
};

// Memoized remote invocation: a servable hit skips the call entirely; a
// miss invokes `fn` on `target` (single-flighted across concurrent
// identical keys) and caches the result. `fn` is the usual Call functor,
// (P&) -> Task<Result<T>>, and must be deterministic given the key.
// Invocation-path exceptions (shed, lost, unreachable, deadline) surface
// as a non-ok Result instead of escaping, so memoized and raw call sites
// can share retry logic.
template <typename T, typename P, typename Fn>
Task<Result<T>> Memoized(MemoCache& cache, Ctx ctx, Ref<P> target,
                         MemoKey key, Fn fn, int64_t request_bytes = 0,
                         Duration max_staleness = Duration::Zero()) {
  co_return co_await cache.GetOrCompute<T>(
      ctx, key, max_staleness,
      [ctx, target, fn = std::move(fn), request_bytes]() -> Task<Result<T>> {
        try {
          auto call = target.Call(ctx, fn, request_bytes);
          co_return co_await std::move(call);
        } catch (const std::exception& e) {
          co_return Status::Unavailable(e.what());
        }
      });
}

}  // namespace quicksand

#endif  // QUICKSAND_MEMO_MEMOIZED_H_
