// Metrics collected by the simulators, shaped after the paper's evaluation:
// total messages per member of the initial online population (y-axis of
// Figs. 1–5), fraction of online peers aware (x-axis), push rounds used
// (the latency column of Table 2), duplicates, and byte counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace updp2p::sim {

/// Snapshot after one push round.
struct RoundMetrics {
  common::Round round = 0;
  std::size_t online = 0;
  std::size_t aware_online = 0;    ///< online peers holding the update
  std::uint64_t messages = 0;      ///< protocol messages sent this round
  std::uint64_t push_messages = 0;
  std::uint64_t pull_messages = 0; ///< pull requests + responses
  std::uint64_t ack_messages = 0;
  std::uint64_t query_messages = 0;  ///< query requests + replies (§4.4)
  std::uint64_t duplicates = 0;    ///< pushes for already-known versions
  std::uint64_t bytes = 0;

  [[nodiscard]] double aware_fraction() const noexcept {
    return online == 0 ? 0.0
                       : static_cast<double>(aware_online) /
                             static_cast<double>(online);
  }
};

/// Whole-run metrics for one propagated update.
struct RunMetrics {
  std::vector<RoundMetrics> rounds;
  std::size_t initial_online = 0;
  std::size_t population = 0;

  [[nodiscard]] std::uint64_t total_messages() const noexcept;
  [[nodiscard]] std::uint64_t total_push_messages() const noexcept;
  [[nodiscard]] std::uint64_t total_pull_messages() const noexcept;
  [[nodiscard]] std::uint64_t total_duplicates() const noexcept;
  [[nodiscard]] std::uint64_t total_bytes() const noexcept;
  [[nodiscard]] double final_aware_fraction() const noexcept {
    return rounds.empty() ? 0.0 : rounds.back().aware_fraction();
  }
  /// The paper's headline metric.
  [[nodiscard]] double messages_per_initial_online() const noexcept {
    return initial_online == 0
               ? 0.0
               : static_cast<double>(total_push_messages()) /
                     static_cast<double>(initial_online);
  }
  /// Rounds until the last new peer became aware (latency), counted from
  /// this update's first round.
  [[nodiscard]] common::Round rounds_to_quiescence() const noexcept;

  /// (x = F_aware, y = cumulative push messages / R_on(0)) as in the plots.
  [[nodiscard]] common::Series to_series(std::string label) const;
};

/// Averages several stochastic runs into a single summary row.
struct AggregateMetrics {
  common::RunningStats messages_per_initial_online;
  common::RunningStats final_aware_fraction;
  common::RunningStats rounds_to_quiescence;
  common::RunningStats duplicates;
  common::RunningStats pull_messages;

  void add(const RunMetrics& run);
};

}  // namespace updp2p::sim
