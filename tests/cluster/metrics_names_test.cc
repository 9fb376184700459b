// The exported-metric registry: every name follows the snake_case rule,
// names are unique, and the live TimeSeries objects agree with the
// registry's stems (so the DESIGN.md table cannot drift from the code).

#include "quicksand/cluster/metrics.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "quicksand/common/bytes.h"

namespace quicksand {
namespace {

TEST(MetricsNamesTest, SnakeCaseRuleAcceptsAndRejects) {
  EXPECT_TRUE(IsSnakeCaseMetricName("cpu_util"));
  EXPECT_TRUE(IsSnakeCaseMetricName("cpu_util_m3"));
  EXPECT_TRUE(IsSnakeCaseMetricName("producer_count"));
  EXPECT_TRUE(IsSnakeCaseMetricName("x"));

  EXPECT_FALSE(IsSnakeCaseMetricName(""));
  EXPECT_FALSE(IsSnakeCaseMetricName("CpuUtil"));
  EXPECT_FALSE(IsSnakeCaseMetricName("cpu util"));
  EXPECT_FALSE(IsSnakeCaseMetricName("cpu-util"));
  EXPECT_FALSE(IsSnakeCaseMetricName("_cpu"));
  EXPECT_FALSE(IsSnakeCaseMetricName("cpu_"));
  EXPECT_FALSE(IsSnakeCaseMetricName("cpu__util"));
  EXPECT_FALSE(IsSnakeCaseMetricName("3cpu"));
}

TEST(MetricsNamesTest, EveryRegisteredNameIsSnakeCaseAndUnique) {
  const std::vector<MetricInfo>& metrics = ExportedMetrics();
  ASSERT_FALSE(metrics.empty());
  std::set<std::string> seen;
  for (const MetricInfo& m : metrics) {
    EXPECT_TRUE(IsSnakeCaseMetricName(m.name)) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate: " << m.name;
    EXPECT_NE(std::string(m.source), "") << m.name;
    EXPECT_NE(std::string(m.description), "") << m.name;
  }
  // The historical offender stays dead: the producer-count series was once
  // exported as "producers".
  EXPECT_EQ(seen.count("producers"), 0u);
  EXPECT_EQ(seen.count("producer_count"), 1u);
}

TEST(MetricsNamesTest, HealthCounterFieldsAreAllRegistered) {
  std::set<std::string> names;
  for (const MetricInfo& m : ExportedMetrics()) {
    names.insert(m.name);
  }
  for (const char* field :
       {"heartbeats_sent", "heartbeats_delivered", "posthumous_heartbeats",
        "suspicions", "false_suspicions", "confirmations", "declared_dead",
        "fenced_migrations", "fenced_rpcs"}) {
    EXPECT_EQ(names.count(field), 1u) << field;
  }
}

TEST(MetricsNamesTest, OverloadAndServingMetricsAreAllRegistered) {
  std::set<std::string> names;
  for (const MetricInfo& m : ExportedMetrics()) {
    names.insert(m.name);
  }
  for (const char* field :
       {"serving_offered_qps", "serving_goodput_qps", "serving_p99_us",
        "shed_invocations", "deadline_rejected_invocations", "stale_reads"}) {
    EXPECT_EQ(names.count(field), 1u) << field;
  }
}

TEST(MetricsNamesTest, LiveSeriesNamesMatchRegistryStems) {
  Simulator sim;
  Cluster cluster(sim);
  for (int i = 0; i < 2; ++i) {
    MachineSpec spec;
    spec.cores = 2;
    spec.memory_bytes = 1_GiB;
    cluster.AddMachine(spec);
  }
  ClusterMetrics metrics(sim, cluster, Duration::Millis(1));
  metrics.Start();

  // Per-machine series are the registry stem plus the "_m<i>" suffix, and
  // every live name still passes the naming rule.
  EXPECT_EQ(metrics.cpu_utilization(0).name(), "cpu_util_m0");
  EXPECT_EQ(metrics.cpu_utilization(1).name(), "cpu_util_m1");
  EXPECT_EQ(metrics.memory_utilization(0).name(), "mem_util_m0");
  EXPECT_EQ(metrics.suspected_machines().name(), "suspected_machines");
  for (MachineId m = 0; m < cluster.size(); ++m) {
    EXPECT_TRUE(IsSnakeCaseMetricName(metrics.cpu_utilization(m).name()));
    EXPECT_TRUE(IsSnakeCaseMetricName(metrics.memory_utilization(m).name()));
  }
}

}  // namespace
}  // namespace quicksand
