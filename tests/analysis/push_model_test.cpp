#include "analysis/push_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

namespace updp2p::analysis {
namespace {

PushModelParams default_params() {
  PushModelParams params;
  params.total_replicas = 10'000;
  params.initial_online = 1'000;
  params.sigma = 0.95;
  params.fanout_fraction = 0.01;
  params.pf = pf_constant(1.0);
  return params;
}

TEST(PushModel, RoundZeroMatchesClosedForm) {
  const auto params = default_params();
  const auto trajectory = evaluate_push(params);
  ASSERT_FALSE(trajectory.rounds.empty());
  const auto& r0 = trajectory.rounds.front();
  EXPECT_EQ(r0.t, 0u);
  // M(0) = R * f_r (§4.2 Round 0).
  EXPECT_DOUBLE_EQ(r0.messages, 10'000 * 0.01);
  // f_new(0) = f_r; l(0) = f_r.
  EXPECT_DOUBLE_EQ(r0.new_aware, 0.01);
  EXPECT_DOUBLE_EQ(r0.aware, 0.01);
  EXPECT_DOUBLE_EQ(r0.list_length, 0.01);
  // L_M(0) = U + R*alpha*f_r = 100 + 10000*10*0.01.
  EXPECT_DOUBLE_EQ(r0.message_bytes, 100.0 + 1'000.0);
}

TEST(PushModel, RoundOneMatchesPaperExpression) {
  auto params = default_params();
  params.use_partial_list = true;
  const auto trajectory = evaluate_push(params);
  ASSERT_GE(trajectory.rounds.size(), 2u);
  const auto& r1 = trajectory.rounds[1];
  // M(1) = R_on(0)*f_r*sigma*PF(1) * R*f_r*(1-f_r)  (§4.2 Round 1).
  const double forwarders = 1'000 * 0.01 * 0.95 * 1.0;
  EXPECT_NEAR(r1.messages, forwarders * 10'000 * 0.01 * (1.0 - 0.01), 1e-9);
  // l(1) = 1-(1-f_r)^2.
  EXPECT_NEAR(r1.list_length, 1.0 - std::pow(0.99, 2), 1e-12);
}

TEST(PushModel, AwarenessIsMonotoneAndBounded) {
  const auto trajectory = evaluate_push(default_params());
  double previous = 0.0;
  for (const auto& r : trajectory.rounds) {
    EXPECT_GE(r.aware, previous);
    EXPECT_LE(r.aware, 1.0 + 1e-12);
    previous = r.aware;
  }
}

TEST(PushModel, CumulativeMessagesAreConsistent) {
  const auto trajectory = evaluate_push(default_params());
  double running = 0.0;
  for (const auto& r : trajectory.rounds) {
    running += r.messages;
    EXPECT_NEAR(r.cum_messages, running, 1e-9);
  }
  EXPECT_NEAR(trajectory.total_messages(), running, 1e-9);
}

TEST(PushModel, ListLengthFollowsInductionFormula) {
  // l(t) = 1 - (1-f_r)^(t+1) (§4.2 induction proof) when uncapped.
  const auto trajectory = evaluate_push(default_params());
  for (const auto& r : trajectory.rounds) {
    const double expected =
        1.0 - std::pow(1.0 - 0.01, static_cast<double>(r.t) + 1.0);
    EXPECT_NEAR(r.list_length, expected, 1e-9) << "round " << r.t;
  }
}

TEST(PushModel, PartialListReducesMessagesOnly) {
  auto with_list = default_params();
  with_list.use_partial_list = true;
  auto without_list = default_params();
  without_list.use_partial_list = false;
  const auto a = evaluate_push(with_list);
  const auto b = evaluate_push(without_list);
  EXPECT_LT(a.total_messages(), b.total_messages());
  // Awareness growth is identical (§4.2: extra messages are duplicates).
  EXPECT_NEAR(a.final_aware(), b.final_aware(), 1e-6);
}

TEST(PushModel, CappedListKeepsAwarenessUnchanged) {
  auto uncapped = default_params();
  auto capped = default_params();
  capped.list_cap = 0.05;
  const auto a = evaluate_push(uncapped);
  const auto b = evaluate_push(capped);
  EXPECT_NEAR(a.final_aware(), b.final_aware(), 1e-9);
  // Capping forwards less suppression info => more (duplicate) messages.
  EXPECT_GE(b.total_messages(), a.total_messages());
  // And caps the advertised list length.
  for (const auto& r : evaluate_push(capped).rounds) {
    EXPECT_LE(r.list_length, 0.05 + 1e-12);
  }
}

TEST(PushModel, ZeroCapEqualsNoList) {
  auto no_list = default_params();
  no_list.use_partial_list = false;
  auto zero_cap = default_params();
  zero_cap.list_cap = 0.0;
  EXPECT_NEAR(evaluate_push(no_list).total_messages(),
              evaluate_push(zero_cap).total_messages(), 1e-6);
}

TEST(PushModel, LowerSigmaMeansFewerMessages) {
  auto high = default_params();
  high.sigma = 1.0;
  auto low = default_params();
  low.sigma = 0.8;
  EXPECT_GT(evaluate_push(high).total_messages(),
            evaluate_push(low).total_messages());
}

TEST(PushModel, SubcriticalRumorDies) {
  auto params = default_params();
  params.initial_online = 100;  // Fig. 1(a) regime
  const auto trajectory = evaluate_push(params);
  EXPECT_TRUE(trajectory.died());
  EXPECT_LT(trajectory.final_aware(), 0.2);
}

TEST(PushModel, SupercriticalRumorSpreads) {
  const auto trajectory = evaluate_push(default_params());
  EXPECT_FALSE(trajectory.died());
  EXPECT_GT(trajectory.final_aware(), 0.99);
}

TEST(PushModel, DecayingPfReducesMessages) {
  auto flood = default_params();
  flood.sigma = 0.9;
  auto decay = flood;
  decay.pf = pf_geometric(0.9);
  const auto a = evaluate_push(flood);
  const auto b = evaluate_push(decay);
  EXPECT_LT(b.total_messages(), a.total_messages());
  EXPECT_GT(b.final_aware(), 0.95);  // still spreads
}

TEST(PushModel, AggressiveDecayKillsTheRumor) {
  auto params = default_params();
  params.sigma = 0.9;
  params.pf = pf_geometric(0.5);
  EXPECT_TRUE(evaluate_push(params).died());
}

TEST(PushModel, GnutellaDuplicateAvoidanceEquivalence) {
  // §5.6: with every aware peer forwarding once (PF=1, sigma=1, no list),
  // total messages per online peer ≈ the absolute fanout.
  PushModelParams params;
  params.total_replicas = 10'000;
  params.initial_online = 10'000;
  params.sigma = 1.0;
  params.fanout_fraction = 4.0 / 10'000;
  params.use_partial_list = false;
  const auto trajectory = evaluate_push(params);
  EXPECT_NEAR(trajectory.messages_per_initial_online(),
              params.absolute_fanout() * trajectory.final_aware(), 0.05);
}

TEST(PushModel, MessagesPerInitialOnlineNormalisation) {
  const auto trajectory = evaluate_push(default_params());
  EXPECT_NEAR(trajectory.messages_per_initial_online(),
              trajectory.total_messages() / 1'000.0, 1e-9);
}

TEST(PushModel, RoundsToFractionIsBeforeLastRound) {
  auto params = default_params();
  params.pf = pf_geometric(0.9);
  const auto trajectory = evaluate_push(params);
  EXPECT_LE(trajectory.rounds_to_fraction(0.99), trajectory.rounds_used());
  EXPECT_GT(trajectory.rounds_to_fraction(0.99), 0u);
}

TEST(PushModel, SeriesMatchesRounds) {
  const auto trajectory = evaluate_push(default_params());
  const auto series = trajectory.to_series("s");
  ASSERT_EQ(series.size(), trajectory.rounds.size());
  EXPECT_NEAR(series.final_x(), trajectory.final_aware(), 1e-12);
  EXPECT_NEAR(series.final_y(), trajectory.messages_per_initial_online(),
              1e-9);
}

TEST(PushModel, TotalBytesGrowWithListEnabled) {
  auto with_list = default_params();
  auto without_list = default_params();
  without_list.use_partial_list = false;
  // Per-message size with a list exceeds the bare update size.
  const auto a = evaluate_push(with_list);
  ASSERT_FALSE(a.rounds.empty());
  for (const auto& r : a.rounds) {
    EXPECT_GT(r.message_bytes, without_list.update_size_bytes - 1e-9);
  }
}

TEST(PushModel, RespectsMaxRounds) {
  auto params = default_params();
  params.initial_online = 100;  // dying rumor: long tail
  params.max_rounds = 5;
  EXPECT_LE(evaluate_push(params).rounds_used(), 5u);
}

// Parameter sweep: the epidemic threshold. Initial spread grows iff the
// round-1 branching factor R_on(0)*f_r*sigma exceeds 1.
struct ThresholdCase {
  double online;
  double f_r;
  double sigma;
  bool expect_spread;
};

// Without a printer GoogleTest names each case after a raw byte dump of
// the struct, padding after `expect_spread` included, and CTest would name
// each case after bytes that can change between builds.
void PrintTo(const ThresholdCase& c, std::ostream* os) {
  *os << "online" << c.online << "_fr" << c.f_r << "_sigma" << c.sigma
      << (c.expect_spread ? "_spreads" : "_dies");
}

class PushThreshold : public ::testing::TestWithParam<ThresholdCase> {};

TEST_P(PushThreshold, SpreadMatchesBranchingFactor) {
  const auto& c = GetParam();
  PushModelParams params;
  params.total_replicas = 10'000;
  params.initial_online = c.online;
  params.sigma = c.sigma;
  params.fanout_fraction = c.f_r;
  const auto trajectory = evaluate_push(params);
  if (c.expect_spread) {
    EXPECT_GT(trajectory.final_aware(), 0.9);
  } else {
    EXPECT_LT(trajectory.final_aware(), 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PushThreshold,
    ::testing::Values(ThresholdCase{1'000, 0.01, 0.95, true},
                      ThresholdCase{100, 0.01, 0.95, false},
                      ThresholdCase{3'000, 0.001, 1.0, true},
                      ThresholdCase{500, 0.001, 1.0, false},
                      ThresholdCase{1'000, 0.02, 0.5, true},
                      ThresholdCase{1'000, 0.001, 0.5, false}));

}  // namespace
}  // namespace updp2p::analysis
