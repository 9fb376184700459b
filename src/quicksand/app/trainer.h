// GpuTrainer: the delay-emulated GPU training stage (§4).
//
// "For the training stage, we emulated GPUs by adding a delay to consume
// data from the queue, as we have not yet implemented GPU proclets." Each
// active emulated GPU waits in a blocking pop until the sharded queue gives
// it tensors, repeats until it holds a full batch, and then sleeps for the
// batch's training time. The live GPU count can change at any moment
// (SetGpuCount) — that is the disturbance Fig. 3 applies every 200 ms.

#ifndef QUICKSAND_APP_TRAINER_H_
#define QUICKSAND_APP_TRAINER_H_

#include <memory>
#include <optional>
#include <vector>

#include "quicksand/app/image.h"
#include "quicksand/ds/sharded_queue.h"

namespace quicksand {

struct GpuTrainerConfig {
  int initial_gpus = 4;
  int max_gpus = 16;
  int batch_size = 8;
  // Emulated time to train one batch on one GPU.
  Duration batch_time = Duration::Millis(2);
  // How often an inactive GPU re-checks whether it was activated, and the
  // backoff after a failed pop. An active GPU never polls: it waits inside
  // the queue's blocking pop.
  Duration idle_poll = Duration::Micros(200);
  // Machine whose NIC the trainers pull through.
  MachineId gpu_machine = 0;
};

class GpuTrainer {
 public:
  GpuTrainer(Runtime& rt, ShardedQueue<Tensor> queue, GpuTrainerConfig config)
      : rt_(rt), queue_(std::move(queue)), config_(config) {
    state_ = std::make_shared<State>();
    state_->active_gpus = config.initial_gpus;
    state_->wait_since.resize(static_cast<size_t>(config.max_gpus));
  }

  // Spawns max_gpus worker fibers; only the first `active_gpus` consume.
  void Start() {
    for (int i = 0; i < config_.max_gpus; ++i) {
      rt_.sim().Spawn(GpuLoop(i), "gpu_worker_" + std::to_string(i));
    }
  }

  void SetGpuCount(int n) {
    QS_CHECK(n >= 0 && n <= config_.max_gpus);
    // A waiting GPU's idle counts only while it is active: settle the waits
    // of GPUs that stop being active, restart the clock of those that start.
    const SimTime now = rt_.sim().Now();
    for (int i = 0; i < config_.max_gpus; ++i) {
      std::optional<SimTime>& since = state_->wait_since[static_cast<size_t>(i)];
      const bool was_active = i < state_->active_gpus;
      if (!since.has_value() || was_active == (i < n)) {
        continue;
      }
      if (was_active) {
        state_->idle += now - *since;
      } else {
        since = now;
      }
    }
    state_->active_gpus = n;
  }
  int gpu_count() const { return state_->active_gpus; }

  int64_t tensors_consumed() const { return state_->tensors_consumed; }
  int64_t batches_trained() const { return state_->batches; }

  // Cumulative time active GPUs have spent waiting for tensors, including
  // waits still in progress (the starvation signal the stage scaler reads
  // as a delta between rounds).
  Duration TotalIdle() const {
    const SimTime now = rt_.sim().Now();
    Duration total = state_->idle;
    for (int i = 0; i < state_->active_gpus; ++i) {
      const std::optional<SimTime>& since = state_->wait_since[static_cast<size_t>(i)];
      if (since.has_value()) {
        total += now - *since;
      }
    }
    return total;
  }
  Duration TotalBusy() const { return state_->busy; }

 private:
  struct State {
    int active_gpus = 0;
    int64_t tensors_consumed = 0;
    int64_t batches = 0;
    Duration idle = Duration::Zero();  // settled waits only
    Duration busy = Duration::Zero();
    // Per GPU, while it waits for tensors: when the wait last started
    // counting as idle (it began, or the GPU was activated mid-wait).
    std::vector<std::optional<SimTime>> wait_since;
  };

  Task<> GpuLoop(int index) {
    std::vector<Tensor> pending;
    std::optional<SimTime>& wait_since = state_->wait_since[static_cast<size_t>(index)];
    for (;;) {
      if (index >= state_->active_gpus) {
        co_await rt_.sim().Sleep(config_.idle_poll);
        continue;
      }
      const int64_t need = config_.batch_size - static_cast<int64_t>(pending.size());
      if (need > 0) {
        wait_since = rt_.sim().Now();
        auto pop = queue_.PopBatch(rt_.CtxOn(config_.gpu_machine), need);
        Result<std::vector<Tensor>> got = co_await std::move(pop);
        if (got.ok()) {
          pending.insert(pending.end(), got->begin(), got->end());
        } else {
          co_await rt_.sim().Sleep(config_.idle_poll);  // error backoff
        }
        if (index < state_->active_gpus) {
          state_->idle += rt_.sim().Now() - *wait_since;
        }
        wait_since.reset();
      }
      if (static_cast<int64_t>(pending.size()) < config_.batch_size) {
        continue;
      }
      co_await rt_.sim().Sleep(config_.batch_time);  // the emulated GPU work
      state_->busy += config_.batch_time;
      state_->tensors_consumed += static_cast<int64_t>(pending.size());
      ++state_->batches;
      pending.clear();
    }
  }

  Runtime& rt_;
  ShardedQueue<Tensor> queue_;
  GpuTrainerConfig config_;
  std::shared_ptr<State> state_;
};

}  // namespace quicksand

#endif  // QUICKSAND_APP_TRAINER_H_
