// Parallel computation APIs over sharded data (§3.2): ForEach, Map, Reduce.
//
// "Users can pass data structure iterators to a map API; this uses compute
// proclets to execute a function over each element stored within memory
// proclets." The range of a ShardedVector is carved into per-shard-aligned
// spans; each span becomes one pool job that streams its elements (with
// prefetching) and applies the user function.

#ifndef QUICKSAND_COMPUTE_PARALLEL_H_
#define QUICKSAND_COMPUTE_PARALLEL_H_

#include <functional>
#include <memory>
#include <vector>

#include "quicksand/compute/dist_pool.h"
#include "quicksand/ds/sharded_vector.h"
#include "quicksand/ds/stream.h"

namespace quicksand {

struct ParallelOptions {
  // Elements per job; jobs are the unit of CPU scheduling across the pool.
  uint64_t span_elems = 256;
  // Transfer granularity inside each job's stream.
  uint64_t chunk_elems = 64;
  bool prefetch = true;
};

// Applies fn(ctx, index, element) to every element of `vec` using `pool`.
// Completes when all spans have been processed. A span whose elements could
// not all be read fails the call with the read's status (DataLoss for a
// lost shard).
template <typename T, typename Fn>
Task<Status> ParallelForEach(Ctx ctx, DistPool& pool, ShardedVector<T> vec, Fn fn,
                             ParallelOptions options = ParallelOptions{}) {
  auto size = vec.Size(ctx);
  Result<uint64_t> total = co_await std::move(size);
  if (!total.ok()) {
    co_return total.status();
  }
  auto remaining = std::make_shared<WaitGroup>(ctx.rt->sim());
  auto failures = std::make_shared<int64_t>(0);
  auto read_error = std::make_shared<Status>();

  for (uint64_t begin = 0; begin < *total; begin += options.span_elems) {
    const uint64_t end = std::min(*total, begin + options.span_elems);
    remaining->Add(1);
    ComputeProclet::Job job = [vec, begin, end, fn, options, remaining, failures,
                               read_error](Ctx job_ctx) mutable -> Task<> {
      VectorStream<T> stream(vec, begin, end, options.chunk_elems, options.prefetch);
      uint64_t index = begin;
      for (;;) {
        auto next = stream.Next(job_ctx);
        std::optional<T> element = co_await std::move(next);
        if (!element.has_value()) {
          break;
        }
        try {
          auto apply = fn(job_ctx, index, std::move(*element));
          co_await std::move(apply);
        } catch (...) {
          ++*failures;
        }
        ++index;
      }
      if (!stream.status().ok() && read_error->ok()) {
        *read_error = stream.status();
      }
      remaining->Done();
    };
    auto submit = pool.Submit(ctx, std::move(job));
    Status submitted = co_await std::move(submit);
    if (!submitted.ok()) {
      remaining->Done();
      ++*failures;
    }
  }
  auto wait = remaining->Wait();
  co_await std::move(wait);
  if (!read_error->ok()) {
    co_return *read_error;
  }
  if (*failures > 0) {
    co_return Status::Internal("some parallel spans failed");
  }
  co_return Status::Ok();
}

// Maps every element through fn and appends the results to a new
// ShardedVector<R> (result order is not guaranteed to match input order —
// spans run concurrently).
template <typename R, typename T, typename Fn>
Task<Result<ShardedVector<R>>> ParallelMap(Ctx ctx, DistPool& pool,
                                           ShardedVector<T> vec, Fn fn,
                                           typename ShardedVector<R>::Options out_opts =
                                               typename ShardedVector<R>::Options{},
                                           ParallelOptions options = ParallelOptions{}) {
  auto create = ShardedVector<R>::Create(ctx, out_opts);
  Result<ShardedVector<R>> out = co_await std::move(create);
  if (!out.ok()) {
    co_return out.status();
  }
  ShardedVector<R> result = *out;
  auto each = ParallelForEach(
      ctx, pool, std::move(vec),
      [result, fn](Ctx job_ctx, uint64_t index, T element) mutable -> Task<> {
        auto apply = fn(job_ctx, index, std::move(element));
        R mapped = co_await std::move(apply);
        auto push = result.PushBack(job_ctx, std::move(mapped));
        Result<uint64_t> pushed = co_await std::move(push);
        if (!pushed.ok()) {
          throw std::runtime_error("ParallelMap output append failed: " +
                                   pushed.status().ToString());
        }
      },
      options);
  Status status = co_await std::move(each);
  if (!status.ok()) {
    co_return status;
  }
  co_return result;
}

// Reduces fn(ctx, element) -> A over all elements with a commutative,
// associative combiner. Each span folds locally; span results combine at the
// caller.
template <typename A, typename T, typename MapFn, typename CombineFn>
Task<Result<A>> ParallelReduce(Ctx ctx, DistPool& pool, ShardedVector<T> vec,
                               A init, MapFn map_fn, CombineFn combine,
                               ParallelOptions options = ParallelOptions{}) {
  auto partials = std::make_shared<std::vector<A>>();
  auto each = ParallelForEach(
      ctx, pool, std::move(vec),
      [map_fn, partials, init](Ctx job_ctx, uint64_t index, T element) -> Task<> {
        auto apply = map_fn(job_ctx, index, std::move(element));
        A value = co_await std::move(apply);
        partials->push_back(std::move(value));
      },
      options);
  Status status = co_await std::move(each);
  if (!status.ok()) {
    co_return status;
  }
  A acc = std::move(init);
  for (A& partial : *partials) {
    acc = combine(std::move(acc), std::move(partial));
  }
  co_return acc;
}

}  // namespace quicksand

#endif  // QUICKSAND_COMPUTE_PARALLEL_H_
