// Golden determinism for the live runtime layer: a 12-peer chaos run —
// full PeerRuntimes, real codec bytes, timer wheels, retry timers — over
// the deterministic inproc network must reproduce a pinned outcome
// exactly. If any of these numbers moves, the runtime's behaviour changed;
// re-pin deliberately, never casually.
#include <gtest/gtest.h>

#include <string>

#include "chaos/engine.hpp"

namespace updp2p::chaos {
namespace {

// Two peers churn out mid-push and come back, exercising the offline-drop
// and reconnect-pull paths inside the pinned run. The second phase stops
// just short of the 3.2 s timer tick: by then every online peer is aware,
// and the retries that tick would expire are not part of the pinned set.
constexpr const char* kGoldenScript = R"(name loopback-golden
population 12
round 0.5
tick 0.05
loss 0.15
latency 0.01 0.12
fanout 0.3
acks on
retry-attempts 4
retry-initial 0.2
phase 3
  publish 0 golden-key
  offline 4,9
phase 0.19999999999999
  online 4,9
)";

constexpr std::uint64_t kGoldenSeed = 0x60D7E57;

ChaosReport run_golden() {
  std::string error;
  const auto scenario = parse_scenario(kGoldenScript, &error);
  EXPECT_TRUE(scenario.has_value()) << error;
  return run_scenario(*scenario, kGoldenSeed, ChaosOptions{});
}

TEST(LoopbackGolden, RunIsSelfConsistentAcrossRebuilds) {
  EXPECT_EQ(run_golden().trace_digest.to_hex(),
            run_golden().trace_digest.to_hex());
}

TEST(LoopbackGolden, PinnedOutcome) {
  const ChaosReport report = run_golden();
  // Every online peer knows the published version at the phase end.
  EXPECT_TRUE(report.passed())
      << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(report.published, 1u);
  ASSERT_EQ(report.peers.size(), 12u);

  runtime::RuntimeStats totals;
  for (const PeerSummary& peer : report.peers) {
    EXPECT_TRUE(peer.online);
    EXPECT_EQ(peer.state, report.peers.front().state);
    totals.datagrams_out += peer.stats.datagrams_out;
    totals.retransmits += peer.stats.retransmits;
    totals.retries_cancelled += peer.stats.retries_cancelled;
    totals.retries_exhausted += peer.stats.retries_exhausted;
    totals.decode_errors += peer.stats.decode_errors;
    totals.frames_reused += peer.stats.frames_reused;
    totals.retransmit_reencodes += peer.stats.retransmit_reencodes;
  }
  // Pinned fingerprint of the whole run (see file comment). The run covers
  // every interesting path: retransmissions through loss, ack-cancelled
  // retries, exhausted budgets against the two offline peers, and the
  // reconnect pull that brings them back.
  EXPECT_EQ(totals.datagrams_out, 78u);
  EXPECT_EQ(totals.retransmits, 38u);
  EXPECT_EQ(totals.retries_cancelled, 12u);
  EXPECT_EQ(totals.retries_exhausted, 7u);
  EXPECT_EQ(totals.decode_errors, 0u);
  // Zero-copy invariants of the pooled send path: encodes land in recycled
  // buffers once the pool is warm, and a retransmission NEVER re-encodes —
  // it resends the exact bytes its PendingSend owns.
  EXPECT_GT(totals.frames_reused, 0u);
  EXPECT_EQ(totals.retransmit_reencodes, 0u);
}

}  // namespace
}  // namespace updp2p::chaos
