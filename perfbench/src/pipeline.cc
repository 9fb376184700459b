// Workload `pipeline`: the Fig. 2 DNN preprocessing pipeline in the
// Both-unbalanced configuration (6 cores + 12 GiB | 40 cores + 1 GiB).
//
// Sharded image vector -> DistPool ParallelForEach with prefetching
// iterators -> ShardedQueue -> emulated GPUs, with local reactors and the
// global rebalancer on. A closed batch: the timed phase is the whole
// ParallelForEach, and an operation is one image, timed from the start of
// the batch to its tensor being pushed. Built with the same library calls
// and parameters as bench/fig2_imbalanced_pipeline.

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "quicksand/app/image.h"
#include "quicksand/app/trainer.h"
#include "quicksand/common/bytes.h"
#include "quicksand/common/random.h"
#include "quicksand/compute/parallel.h"
#include "quicksand/ds/sharded_queue.h"
#include "quicksand/sched/global_rebalancer.h"
#include "quicksand/sched/local_reactor.h"
#include "trace_agg.h"
#include "workloads.h"

namespace perfbench {

using namespace quicksand;  // NOLINT: the workload is library calls throughout

namespace {

// Multiple of the trainer's batch size, so every tensor is consumed.
constexpr int64_t kImages = 60000;
// bench/fig2_imbalanced_pipeline's dataset.
constexpr uint64_t kDatasetSeed = 2023;

MachineSpec Spec(int cores, double mem_gib) {
  MachineSpec spec;
  spec.cores = cores;
  spec.memory_bytes = static_cast<int64_t>(mem_gib * static_cast<double>(kGiB));
  spec.cpu_quantum = Duration::Micros(500);
  return spec;
}

}  // namespace

RepResult RunPipeline(const RepContext& rc) {
  RepResult r;
  r.attempted = kImages;

  PhaseTimer build(rc.spans, "build");
  Simulator sim;
  Cluster cluster(sim);
  cluster.AddMachine(Spec(6, 12.0));
  cluster.AddMachine(Spec(40, 1.0));
  Runtime rt(sim, cluster);
  Tracer* tracer = AttachBenchTracer(rc.trace, rt, rc.label);
  std::optional<SimTraceAggregator> agg;
  if (tracer != nullptr) {
    agg.emplace(*tracer);
  }
  const auto harvest = [&agg] {
    if (agg && agg->NeedsHarvest()) {
      agg->Harvest();
    }
  };
  auto reactors = StartLocalReactors(rt);
  GlobalRebalancerConfig rebalance_cfg;
  rebalance_cfg.period = Duration::Millis(20);
  GlobalRebalancer rebalancer(rt, rebalance_cfg);
  rebalancer.Start();
  const Ctx ctx = rt.CtxOn(0);
  r.setup_s += build.Stop();

  PhaseTimer load(rc.spans, "load");
  // Fig. 2's dataset in a seed-drawn order; seed 0 keeps Fig. 2's order.
  // Drawing the image sizes from the seed instead would move the dataset's
  // total across the knife edge where the tensor queue lands on the
  // memory-rich machine, and reps would flip between two placements with
  // very different host costs.
  const ImageGenerator generator(kDatasetSeed);
  std::vector<uint64_t> order(kImages);
  std::iota(order.begin(), order.end(), 0);
  if (rc.seed != 0) {
    Rng shuffle(rc.seed);
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[shuffle.NextBounded(i + 1)]);
    }
  }
  ShardedVector<Image>::Options vec_options;
  vec_options.max_shard_bytes = 16 * kMiB;
  auto vec = *sim.BlockOn(ShardedVector<Image>::Create(ctx, vec_options));
  for (int64_t i = 0; i < kImages; ++i) {
    auto push = vec.PushBack(ctx, generator.Generate(order[static_cast<size_t>(i)]));
    const Result<uint64_t> pushed = sim.BlockOn(std::move(push));
    if (!pushed.ok()) {
      r.violations.push_back("PushBack failed: " + pushed.status().ToString());
      return r;
    }
    harvest();
  }
  const double load_s = load.Stop();
  r.setup_s += load_s;
  r.host.Set("ds.load_host_s", load_s, "s");
  r.host.Set("ds.load_ns_per_push", load_s / static_cast<double>(kImages) * 1e9, "ns");

  PhaseTimer start(rc.spans, "start");
  ShardedQueue<Tensor>::Options queue_options;
  queue_options.max_segment_bytes = 8 * kMiB;
  auto queue = *sim.BlockOn(ShardedQueue<Tensor>::Create(ctx, queue_options));
  GpuTrainerConfig gpu_cfg;
  gpu_cfg.initial_gpus = 8;
  gpu_cfg.max_gpus = 8;
  gpu_cfg.batch_size = 32;
  gpu_cfg.batch_time = Duration::Millis(4);
  GpuTrainer trainer(rt, queue, gpu_cfg);
  trainer.Start();
  DistPool::Options pool_options;
  pool_options.workers_per_proclet = 4;
  pool_options.initial_proclets = std::max(2, cluster.total_cores() / 2);
  DistPool pool = *sim.BlockOn(DistPool::Create(ctx, pool_options));
  ParallelOptions par_options;
  const int64_t total_workers =
      pool_options.initial_proclets * pool_options.workers_per_proclet;
  par_options.span_elems =
      static_cast<uint64_t>(std::max<int64_t>(16, kImages / (4 * total_workers)));
  par_options.chunk_elems = 16;
  r.setup_s += start.Stop();

  PhaseTimer timed(rc.spans, "timed");
  const LayerSnapshot before = TakeSnapshot(rt);
  const SimTime t0 = sim.Now();
  std::vector<int64_t> latencies;
  latencies.reserve(kImages);
  std::vector<int> pushes_per_image(kImages, 0);
  std::optional<Status> status;
  struct Batch {
    static Task<> Run(Task<Status> body, std::optional<Status>& out) {
      out.emplace(co_await std::move(body));
    }
  };
  PreprocessCostModel cost_model;
  Fiber batch = sim.Spawn(Batch::Run(
      ParallelForEach(
          ctx, pool, vec,
          [queue, cost_model, t0, lat = &latencies, seen = &pushes_per_image](
              Ctx job_ctx, uint64_t index, Image image) mutable -> Task<> {
            (void)co_await MigratableBurn(job_ctx, PreprocessCost(image, cost_model));
            auto push = queue.Push(job_ctx, MakeTensor(image, cost_model));
            const Status pushed = co_await std::move(push);
            if (!pushed.ok()) {
              throw std::runtime_error("tensor push failed: " + pushed.ToString());
            }
            lat->push_back((job_ctx.rt->sim().Now() - t0).nanos());
            ++seen->at(index);
          },
          par_options),
      status));
  // Simulator::BlockOn's loop, stepped here so a traced rep can drain the
  // tracer between events.
  while (!batch.done()) {
    if (!sim.Step()) {
      r.violations.push_back("pipeline deadlocked");
      return r;
    }
    harvest();
  }
  const double makespan_s = static_cast<double>((sim.Now() - t0).nanos()) / 1e9;
  ReportCommonLayers(rt, before, &r.sim);
  r.run_s = timed.Stop();
  r.host.Set("compute.foreach_host_s", r.run_s, "s");

  PhaseTimer verify(rc.spans, "verify");
  if (!status.has_value() || !status->ok()) {
    r.violations.push_back("ParallelForEach: " +
                           (status ? status->ToString() : std::string("no status")));
  }
  const int64_t exactly_once =
      std::count(pushes_per_image.begin(), pushes_per_image.end(), 1);
  if (exactly_once != kImages) {
    r.violations.push_back(std::to_string(kImages - exactly_once) +
                           " images not pushed exactly once");
  }
  // The GPUs drain the queue after the last push. Each one trains only full
  // batches, so up to batch_size - 1 tensors per GPU can stay staged in a
  // partial batch forever: the check is that the queue empties and every
  // tensor is either trained or staged.
  int64_t queued = -1;
  for (int i = 0; i < 100 && queued != 0; ++i) {
    sim.RunFor(Duration::Millis(10));
    harvest();
    queued = sim.BlockOn(queue.Size(ctx)).value_or(-1);
  }
  const int64_t staged = kImages - trainer.tensors_consumed();
  if (queued != 0 || staged < 0 ||
      staged >= int64_t{gpu_cfg.max_gpus} * gpu_cfg.batch_size) {
    r.violations.push_back("trainer consumed " +
                           std::to_string(trainer.tensors_consumed()) + " of " +
                           std::to_string(kImages) + " tensors, " +
                           std::to_string(queued) + " still queued");
  }

  const auto ok = static_cast<double>(latencies.size());
  r.sim.Set("sim_goodput", makespan_s > 0 ? ok / makespan_s : 0.0, "1/s");
  ReportLatency(latencies, &r.sim);
  r.sim.Set("ok_frac", ok / static_cast<double>(kImages), "frac");
  r.sim.Set("app.makespan_s", makespan_s, "s");
  r.sim.Set("app.tensors_consumed", static_cast<double>(trainer.tensors_consumed()),
            "count");
  int64_t evictions = 0;
  for (const auto& reactor : reactors) {
    evictions += reactor->cpu_evictions() + reactor->memory_evictions();
  }
  r.sim.Set("sched.reactor_evictions", static_cast<double>(evictions), "count");
  r.sim.Set("sched.rebalancer_migrations",
            static_cast<double>(rebalancer.total_migrations()), "count");
  r.sim.Set("compute.jobs", static_cast<double>(pool.submitted()), "count");
  if (agg) {
    agg->Harvest();
    ReportTrace(*agg, &r);
  }
  verify.Stop();
  return r;
}

}  // namespace perfbench
