// Closed-form checks of the CPU scheduler against queueing theory: one core,
// Poisson arrivals, and a quantum either at least the service time (the
// round-robin run queue is then FCFS: M/D/1) or far below it (round-robin
// then approaches processor sharing: M/G/1-PS). Each test asserts that the
// closed form lies inside the run's batch-means 99.9% confidence interval.
// The PS runs rotate each job thousands of times, all of them quantum
// boundaries the scheduler applies in-process.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "quicksand/cluster/cpu.h"
#include "quicksand/common/random.h"
#include "quicksand/sim/simulator.h"

namespace quicksand {
namespace {

constexpr int kJobs = 20000;
constexpr int kWarmup = 1000;  // jobs dropped while the queue fills from empty
constexpr int kBatches = 20;
constexpr double kT999 = 3.883;  // Student's t, two-sided 99.9%, 19 degrees of freedom

struct Interval {
  double mean;
  double half_width;
  bool Contains(double x) const { return std::abs(x - mean) <= half_width; }
};

// Batch means over the jobs in arrival order, after the warm-up.
Interval BatchMeans(const std::vector<double>& samples) {
  const size_t per_batch = (samples.size() - kWarmup) / kBatches;
  std::vector<double> means;
  for (int b = 0; b < kBatches; ++b) {
    double sum = 0.0;
    for (size_t i = 0; i < per_batch; ++i) {
      sum += samples[kWarmup + static_cast<size_t>(b) * per_batch + i];
    }
    means.push_back(sum / static_cast<double>(per_batch));
  }
  double mean = 0.0;
  for (double m : means) {
    mean += m;
  }
  mean /= kBatches;
  double var = 0.0;
  for (double m : means) {
    var += (m - mean) * (m - mean);
  }
  var /= kBatches - 1;
  return Interval{mean, kT999 * std::sqrt(var / kBatches)};
}

Task<> Job(Simulator& sim, CpuScheduler& cpu, Duration work, double& sojourn_ns) {
  const SimTime arrived = sim.Now();
  co_await cpu.Run(work);
  sojourn_ns = static_cast<double>((sim.Now() - arrived).nanos());
}

Task<> Arrivals(Simulator& sim, CpuScheduler& cpu, uint64_t seed, double mean_gap_ns,
                Duration service, bool exponential, std::vector<double>& sojourn_ns) {
  Rng rng(seed);
  for (size_t i = 0; i < sojourn_ns.size(); ++i) {
    co_await sim.Sleep(Duration::Nanos(std::llround(rng.NextExponential(mean_gap_ns))));
    Duration work = service;
    if (exponential) {
      const double drawn = rng.NextExponential(static_cast<double>(service.nanos()));
      work = Duration::Nanos(std::max<int64_t>(1, std::llround(drawn)));
    }
    sim.Spawn(Job(sim, cpu, work, sojourn_ns[i]));
  }
}

// Sojourn time of every job, in arrival order.
std::vector<double> RunQueue(uint64_t seed, double rho, Duration service, bool exponential,
                             Duration quantum) {
  Simulator sim;
  CpuScheduler cpu(sim, 1, quantum);
  std::vector<double> sojourn_ns(kJobs, -1.0);
  const double mean_gap_ns = static_cast<double>(service.nanos()) / rho;
  sim.Spawn(Arrivals(sim, cpu, seed, mean_gap_ns, service, exponential, sojourn_ns));
  sim.RunUntilIdle();
  for (double s : sojourn_ns) {
    EXPECT_GE(s, 0.0);
  }
  return sojourn_ns;
}

TEST(CpuQueueingTest, FcfsQuantumMatchesMD1MeanWait) {
  const Duration service = Duration::Millis(1);
  const double rho = 0.7;
  std::vector<double> wait_ns = RunQueue(1, rho, service, false, service);
  for (double& w : wait_ns) {
    w -= static_cast<double>(service.nanos());
  }
  // Pollaczek-Khinchine: W = rho S / (2 (1 - rho)).
  const double closed_form = rho * static_cast<double>(service.nanos()) / (2.0 * (1.0 - rho));
  const Interval ci = BatchMeans(wait_ns);
  EXPECT_TRUE(ci.Contains(closed_form))
      << "M/D/1 mean wait " << closed_form << " ns outside " << ci.mean << " +- "
      << ci.half_width;
}

void ExpectProcessorSharing(bool exponential) {
  const Duration service = Duration::Millis(1);
  const double rho = 0.5;
  const std::vector<double> sojourn_ns =
      RunQueue(1, rho, service, exponential, Duration::Micros(10));
  // M/G/1-PS: T = S / (1 - rho), whatever the service distribution.
  const double closed_form = static_cast<double>(service.nanos()) / (1.0 - rho);
  const Interval ci = BatchMeans(sojourn_ns);
  EXPECT_TRUE(ci.Contains(closed_form))
      << "M/G/1-PS mean sojourn " << closed_form << " ns outside " << ci.mean << " +- "
      << ci.half_width;
}

TEST(CpuQueueingTest, SmallQuantumMatchesPsMeanSojournDeterministic) {
  ExpectProcessorSharing(false);
}

TEST(CpuQueueingTest, SmallQuantumMatchesPsMeanSojournExponential) {
  ExpectProcessorSharing(true);
}

}  // namespace
}  // namespace quicksand
