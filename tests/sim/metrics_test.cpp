#include "sim/metrics.hpp"

#include <gtest/gtest.h>

namespace updp2p::sim {
namespace {

RunMetrics sample_run() {
  RunMetrics run;
  run.population = 100;
  run.initial_online = 20;
  RoundMetrics r0;
  r0.round = 0;
  r0.online = 20;
  r0.aware_online = 2;
  r0.push_messages = 10;
  r0.messages = 10;
  r0.bytes = 1'000;
  RoundMetrics r1;
  r1.round = 1;
  r1.online = 19;
  r1.aware_online = 10;
  r1.push_messages = 30;
  r1.pull_messages = 4;
  r1.duplicates = 3;
  r1.messages = 34;
  r1.bytes = 3'000;
  RoundMetrics r2;
  r2.round = 2;
  r2.online = 19;
  r2.aware_online = 10;  // no growth
  r2.messages = 0;
  run.rounds = {r0, r1, r2};
  return run;
}

TEST(RunMetrics, Totals) {
  const auto run = sample_run();
  EXPECT_EQ(run.total_messages(), 44u);
  EXPECT_EQ(run.total_push_messages(), 40u);
  EXPECT_EQ(run.total_pull_messages(), 4u);
  EXPECT_EQ(run.total_duplicates(), 3u);
  EXPECT_EQ(run.total_bytes(), 4'000u);
}

TEST(RunMetrics, AwareFraction) {
  const auto run = sample_run();
  EXPECT_NEAR(run.final_aware_fraction(), 10.0 / 19.0, 1e-12);
}

TEST(RunMetrics, MessagesPerInitialOnline) {
  const auto run = sample_run();
  EXPECT_DOUBLE_EQ(run.messages_per_initial_online(), 2.0);
}

TEST(RunMetrics, RoundsToQuiescenceIsLastGrowthRound) {
  const auto run = sample_run();
  EXPECT_EQ(run.rounds_to_quiescence(), 1u);
}

TEST(RunMetrics, RoundsToQuiescenceIsRelativeToFirstRound) {
  // A reused simulator numbers an update's rounds from wherever the
  // previous update stopped; latency must not inherit that offset.
  auto run = sample_run();
  for (auto& round : run.rounds) round.round += 40;
  EXPECT_EQ(run.rounds_to_quiescence(), 1u);
}

TEST(RunMetrics, EmptyRunIsSafe) {
  RunMetrics run;
  EXPECT_EQ(run.total_messages(), 0u);
  EXPECT_EQ(run.final_aware_fraction(), 0.0);
  EXPECT_EQ(run.messages_per_initial_online(), 0.0);
  EXPECT_EQ(run.rounds_to_quiescence(), 0u);
}

TEST(RunMetrics, SeriesIsCumulativePerInitialOnline) {
  const auto series = sample_run().to_series("x");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_NEAR(series.y[0], 0.5, 1e-12);
  EXPECT_NEAR(series.y[1], 2.0, 1e-12);
  EXPECT_NEAR(series.x[1], 10.0 / 19.0, 1e-12);
}

TEST(AggregateMetrics, AveragesRuns) {
  AggregateMetrics aggregate;
  aggregate.add(sample_run());
  aggregate.add(sample_run());
  EXPECT_EQ(aggregate.messages_per_initial_online.count(), 2u);
  EXPECT_DOUBLE_EQ(aggregate.messages_per_initial_online.mean(), 2.0);
  EXPECT_DOUBLE_EQ(aggregate.rounds_to_quiescence.mean(), 1.0);
  EXPECT_DOUBLE_EQ(aggregate.duplicates.mean(), 3.0);
}

}  // namespace
}  // namespace updp2p::sim
