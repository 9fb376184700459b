#include <gtest/gtest.h>

#include "quicksand/adapt/stage_scaler.h"
#include "quicksand/app/image.h"
#include "quicksand/app/preprocess_stage.h"
#include "quicksand/app/trainer.h"
#include "quicksand/common/bytes.h"

namespace quicksand {
namespace {

TEST(ImageGeneratorTest, DeterministicPerId) {
  ImageGenerator gen(7);
  const Image a = gen.Generate(42);
  const Image b = gen.Generate(42);
  EXPECT_EQ(a.encoded_bytes, b.encoded_bytes);
  const Image c = gen.Generate(43);
  EXPECT_NE(a.encoded_bytes, c.encoded_bytes);
}

TEST(ImageGeneratorTest, SizesNearMean) {
  ImageDistribution dist;
  dist.mean_encoded_bytes = 100000;
  dist.stddev_fraction = 0.2;
  ImageGenerator gen(7, dist);
  double sum = 0;
  for (uint64_t i = 0; i < 2000; ++i) {
    const Image img = gen.Generate(i);
    EXPECT_GE(img.encoded_bytes, 10000);
    sum += static_cast<double>(img.encoded_bytes);
  }
  EXPECT_NEAR(sum / 2000.0, 100000.0, 3000.0);
}

TEST(PreprocessCostTest, ScalesWithBytes) {
  PreprocessCostModel model;
  Image small;
  small.encoded_bytes = 1000;
  Image large;
  large.encoded_bytes = 100000;
  EXPECT_LT(PreprocessCost(small, model), PreprocessCost(large, model));
  EXPECT_GE(PreprocessCost(small, model), model.base);
}

struct PipelineFixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  PipelineFixture() {
    for (int i = 0; i < 2; ++i) {
      MachineSpec spec;
      spec.cores = 8;
      spec.memory_bytes = 4_GiB;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
  }

  Ctx ctx() { return rt->CtxOn(0); }
};

PreprocessStageConfig LightImages() {
  PreprocessStageConfig config;
  config.images.mean_encoded_bytes = 10000;
  config.cost.base = Duration::Micros(200);
  config.cost.ns_per_byte = 80.0;  // ~1ms per image
  return config;
}

TEST(PreprocessStageTest, ProducersFillQueue) {
  PipelineFixture f;
  auto queue = *f.sim.BlockOn(ShardedQueue<Tensor>::Create(f.ctx()));
  PreprocessStage stage(*f.rt, queue, LightImages());
  EXPECT_TRUE(f.sim.BlockOn(stage.AddProducer(f.ctx())).ok());
  EXPECT_TRUE(f.sim.BlockOn(stage.AddProducer(f.ctx())).ok());
  EXPECT_EQ(stage.producer_count(), 2);
  f.sim.RunUntil(f.sim.Now() + 50_ms);
  // ~2 producers x 1ms/image x 50ms = ~100 images.
  EXPECT_GT(stage.images_produced(), 50);
  Result<int64_t> backlog = f.sim.BlockOn(queue.Size(f.ctx()));
  ASSERT_TRUE(backlog.ok());
  EXPECT_GT(*backlog, 0);
  f.sim.BlockOn(stage.Shutdown(f.ctx()));
}

TEST(PreprocessStageTest, RemoveProducerStopsItsWork) {
  PipelineFixture f;
  auto queue = *f.sim.BlockOn(ShardedQueue<Tensor>::Create(f.ctx()));
  PreprocessStage stage(*f.rt, queue, LightImages());
  EXPECT_TRUE(f.sim.BlockOn(stage.AddProducer(f.ctx())).ok());
  f.sim.RunUntil(f.sim.Now() + 20_ms);
  EXPECT_TRUE(f.sim.BlockOn(stage.RemoveProducer(f.ctx())).ok());
  EXPECT_EQ(stage.producer_count(), 0);
  const int64_t at_stop = stage.images_produced();
  f.sim.RunUntil(f.sim.Now() + 20_ms);
  EXPECT_EQ(stage.images_produced(), at_stop);
}

TEST(GpuTrainerTest, ConsumesFromQueue) {
  PipelineFixture f;
  auto queue = *f.sim.BlockOn(ShardedQueue<Tensor>::Create(f.ctx()));
  // Preload tensors.
  for (int i = 0; i < 200; ++i) {
    Tensor t;
    t.image_id = static_cast<uint64_t>(i);
    t.bytes = 1000;
    QS_CHECK(f.sim.BlockOn(queue.Push(f.ctx(), t)).ok());
  }
  GpuTrainerConfig cfg;
  cfg.initial_gpus = 2;
  cfg.batch_size = 10;
  cfg.batch_time = 1_ms;
  GpuTrainer trainer(*f.rt, queue, cfg);
  trainer.Start();
  f.sim.RunUntil(f.sim.Now() + 15_ms);
  // 2 GPUs x 1 batch/ms x 10 tensors = all 200 within ~10ms.
  EXPECT_EQ(trainer.tensors_consumed(), 200);
  EXPECT_EQ(trainer.batches_trained(), 20);
}

TEST(GpuTrainerTest, IdleAccumulatesWhenStarved) {
  PipelineFixture f;
  auto queue = *f.sim.BlockOn(ShardedQueue<Tensor>::Create(f.ctx()));
  GpuTrainerConfig cfg;
  cfg.initial_gpus = 1;
  GpuTrainer trainer(*f.rt, queue, cfg);
  trainer.Start();
  f.sim.RunUntil(f.sim.Now() + 10_ms);
  EXPECT_GT(trainer.TotalIdle(), 5_ms);
  EXPECT_EQ(trainer.tensors_consumed(), 0);
}

TEST(GpuTrainerTest, TotalIdleIncludesTheWaitInProgress) {
  PipelineFixture f;
  auto queue = *f.sim.BlockOn(ShardedQueue<Tensor>::Create(f.ctx()));
  GpuTrainerConfig cfg;
  cfg.initial_gpus = 1;
  cfg.max_gpus = 1;
  cfg.batch_size = 1;
  cfg.batch_time = 1_ms;
  GpuTrainer trainer(*f.rt, queue, cfg);
  const SimTime start = f.sim.Now();
  trainer.Start();
  // The GPU parks in one blocking pop; each reading counts the wait so far.
  f.sim.RunUntil(start + 4_ms);
  EXPECT_EQ(trainer.TotalIdle(), 4_ms);
  f.sim.RunUntil(start + 10_ms);
  EXPECT_EQ(trainer.TotalIdle(), 10_ms);
  // A tensor ends the wait; training time is busy, not idle.
  Tensor t;
  t.bytes = 1000;
  QS_CHECK(f.sim.BlockOn(queue.Push(f.ctx(), t)).ok());
  f.sim.RunFor(500_us);
  EXPECT_EQ(trainer.tensors_consumed(), 0);
  const Duration idle_in_training = trainer.TotalIdle();
  EXPECT_GE(idle_in_training, 10_ms);
  EXPECT_LT(idle_in_training, 11_ms);
  f.sim.RunFor(400_us);
  EXPECT_EQ(trainer.TotalIdle(), idle_in_training) << "the GPU is training";
}

TEST(GpuTrainerTest, InactiveGpusAddNoIdle) {
  PipelineFixture f;
  auto queue = *f.sim.BlockOn(ShardedQueue<Tensor>::Create(f.ctx()));
  GpuTrainerConfig cfg;
  cfg.initial_gpus = 2;
  cfg.max_gpus = 4;  // two GPUs never wait: inactive from the start
  GpuTrainer trainer(*f.rt, queue, cfg);
  const SimTime start = f.sim.Now();
  trainer.Start();
  f.sim.RunUntil(start + 5_ms);
  EXPECT_EQ(trainer.TotalIdle(), 10_ms);
  // GPU 1 stays parked in its pop, but inactive it adds nothing.
  trainer.SetGpuCount(1);
  f.sim.RunUntil(start + 10_ms);
  EXPECT_EQ(trainer.TotalIdle(), 15_ms);
  // Reactivated mid-wait, it counts again from the moment it came back.
  trainer.SetGpuCount(2);
  f.sim.RunUntil(start + 15_ms);
  EXPECT_EQ(trainer.TotalIdle(), 25_ms);
  EXPECT_EQ(trainer.TotalBusy(), Duration::Zero());
}

TEST(GpuTrainerTest, GpuCountChangesConsumptionRate) {
  PipelineFixture f;
  auto queue = *f.sim.BlockOn(ShardedQueue<Tensor>::Create(f.ctx()));
  for (int i = 0; i < 10000; ++i) {
    Tensor t;
    t.bytes = 100;
    QS_CHECK(f.sim.BlockOn(queue.Push(f.ctx(), t)).ok());
  }
  GpuTrainerConfig cfg;
  cfg.initial_gpus = 2;
  cfg.batch_size = 4;
  cfg.batch_time = 1_ms;
  GpuTrainer trainer(*f.rt, queue, cfg);
  trainer.Start();
  f.sim.RunUntil(f.sim.Now() + 20_ms);
  const int64_t at_2gpus = trainer.tensors_consumed();
  trainer.SetGpuCount(4);
  f.sim.RunUntil(f.sim.Now() + 20_ms);
  const int64_t delta_4gpus = trainer.tensors_consumed() - at_2gpus;
  EXPECT_NEAR(static_cast<double>(delta_4gpus), 2.0 * static_cast<double>(at_2gpus),
              0.35 * static_cast<double>(at_2gpus));
}

TEST(StageScalerTest, ScalesUpWhenGpusStarve) {
  PipelineFixture f;
  auto queue = *f.sim.BlockOn(ShardedQueue<Tensor>::Create(f.ctx()));
  PreprocessStage stage(*f.rt, queue, LightImages());
  EXPECT_TRUE(f.sim.BlockOn(stage.AddProducer(f.ctx())).ok());

  GpuTrainerConfig gpu_cfg;
  gpu_cfg.initial_gpus = 4;
  gpu_cfg.batch_size = 4;
  gpu_cfg.batch_time = 4_ms;  // 1 tensor/ms/gpu = 4/ms total vs ~1/ms produced
  GpuTrainer trainer(*f.rt, queue, gpu_cfg);
  trainer.Start();

  StageScalerConfig scaler_cfg;
  scaler_cfg.max_producers = 16;
  StageScaler scaler(*f.rt, stage, queue, trainer, scaler_cfg);
  scaler.Start();

  f.sim.RunUntil(f.sim.Now() + 100_ms);
  EXPECT_GT(stage.producer_count(), 1);
  EXPECT_GT(scaler.scale_ups(), 0);
}

TEST(StageScalerTest, ScalesDownWhenBacklogGrows) {
  PipelineFixture f;
  auto queue = *f.sim.BlockOn(ShardedQueue<Tensor>::Create(f.ctx()));
  PreprocessStage stage(*f.rt, queue, LightImages());
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(f.sim.BlockOn(stage.AddProducer(f.ctx())).ok());
  }
  GpuTrainerConfig gpu_cfg;
  gpu_cfg.initial_gpus = 1;
  gpu_cfg.batch_size = 4;
  gpu_cfg.batch_time = 40_ms;  // very slow consumer
  GpuTrainer trainer(*f.rt, queue, gpu_cfg);
  trainer.Start();

  StageScalerConfig scaler_cfg;
  scaler_cfg.min_producers = 1;
  StageScaler scaler(*f.rt, stage, queue, trainer, scaler_cfg);
  scaler.Start();

  f.sim.RunUntil(f.sim.Now() + 100_ms);
  EXPECT_LT(stage.producer_count(), 8);
  EXPECT_GT(scaler.scale_downs(), 0);
}

}  // namespace
}  // namespace quicksand
