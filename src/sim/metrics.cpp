#include "sim/metrics.hpp"

namespace updp2p::sim {

std::uint64_t RunMetrics::total_messages() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds) total += r.messages;
  return total;
}

std::uint64_t RunMetrics::total_push_messages() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds) total += r.push_messages;
  return total;
}

std::uint64_t RunMetrics::total_pull_messages() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds) total += r.pull_messages;
  return total;
}

std::uint64_t RunMetrics::total_duplicates() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds) total += r.duplicates;
  return total;
}

std::uint64_t RunMetrics::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds) total += r.bytes;
  return total;
}

common::Round RunMetrics::rounds_to_quiescence() const noexcept {
  // Round numbers are absolute: on a reused simulator an update's first
  // round is wherever the previous update stopped.
  common::Round last_growth = 0;
  std::size_t previous_aware = 0;
  for (const auto& r : rounds) {
    if (r.aware_online > previous_aware) {
      last_growth = r.round - rounds.front().round;
    }
    previous_aware = r.aware_online;
  }
  return last_growth;
}

common::Series RunMetrics::to_series(std::string label) const {
  common::Series series;
  series.label = std::move(label);
  std::uint64_t cumulative = 0;
  for (const auto& r : rounds) {
    cumulative += r.push_messages;
    series.push(r.aware_fraction(),
                initial_online == 0
                    ? 0.0
                    : static_cast<double>(cumulative) /
                          static_cast<double>(initial_online));
  }
  return series;
}

void AggregateMetrics::add(const RunMetrics& run) {
  messages_per_initial_online.add(run.messages_per_initial_online());
  final_aware_fraction.add(run.final_aware_fraction());
  rounds_to_quiescence.add(static_cast<double>(run.rounds_to_quiescence()));
  duplicates.add(static_cast<double>(run.total_duplicates()));
  pull_messages.add(static_cast<double>(run.total_pull_messages()));
}

}  // namespace updp2p::sim
