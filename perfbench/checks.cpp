#include "checks.hpp"

#include <string>

namespace perfbench {

using namespace updp2p;

void check_durable(Report& report,
                   const std::vector<const runtime::PeerRuntime*>& peers) {
  std::size_t volatile_peers = 0, silent_logs = 0;
  std::string first_error;
  for (const runtime::PeerRuntime* peer : peers) {
    if (!peer->durable()) {
      ++volatile_peers;
      if (first_error.empty()) first_error = peer->store_error();
    }
    if (peer->stats().wal_appends == 0) ++silent_logs;
  }
  report.check(volatile_peers == 0,
               std::to_string(volatile_peers) +
                   " peers run volatile (durable() is false): " + first_error);
  report.check(silent_logs == 0, std::to_string(silent_logs) +
                                     " peers appended nothing to their WAL");
}

void check_digests(Report& report, const std::vector<common::Digest128>& before,
                   const std::vector<common::Digest128>& after) {
  std::size_t differ = before.size() == after.size() ? 0 : before.size();
  for (std::size_t i = 0; i < before.size() && i < after.size(); ++i) {
    if (before[i] != after[i]) ++differ;
  }
  report.check(differ == 0, std::to_string(differ) +
                                " restarted peers differ from their content "
                                "digest before the crash");
}

void check_runtime_integrity(Report& report,
                             const runtime::RuntimeStats& totals) {
  report.check(totals.retransmit_reencodes == 0,
               "retransmit_reencodes == 0 (is " +
                   std::to_string(totals.retransmit_reencodes) + ")");
  report.check(totals.decode_errors == 0,
               "decode_errors == 0 (is " +
                   std::to_string(totals.decode_errors) + ")");
}

bool same_metrics(const sim::RunMetrics& a, const sim::RunMetrics& b) {
  if (a.rounds.size() != b.rounds.size() ||
      a.initial_online != b.initial_online || a.population != b.population) {
    return false;
  }
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    const sim::RoundMetrics& x = a.rounds[i];
    const sim::RoundMetrics& y = b.rounds[i];
    if (x.round != y.round || x.online != y.online ||
        x.aware_online != y.aware_online || x.messages != y.messages ||
        x.push_messages != y.push_messages ||
        x.pull_messages != y.pull_messages ||
        x.ack_messages != y.ack_messages ||
        x.query_messages != y.query_messages ||
        x.duplicates != y.duplicates || x.bytes != y.bytes) {
      return false;
    }
  }
  return true;
}

namespace {
/// Applies `op(into.field, from.field)` to every counter the benchmark reads.
template <typename Op>
void each_counter(runtime::RuntimeStats& into,
                  const runtime::RuntimeStats& from, Op op) {
  op(into.datagrams_out, from.datagrams_out);
  op(into.datagrams_in, from.datagrams_in);
  op(into.decode_errors, from.decode_errors);
  op(into.retransmits, from.retransmits);
  op(into.retries_armed, from.retries_armed);
  op(into.retries_cancelled, from.retries_cancelled);
  op(into.retries_exhausted, from.retries_exhausted);
  op(into.retransmit_reencodes, from.retransmit_reencodes);
  op(into.wal_appends, from.wal_appends);
  op(into.wal_append_failures, from.wal_append_failures);
  op(into.wal_replayed, from.wal_replayed);
  op(into.wal_replay_rejected, from.wal_replay_rejected);
  op(into.snapshots_written, from.snapshots_written);
  op(into.snapshot_failures, from.snapshot_failures);
}
}  // namespace

runtime::RuntimeStats sum_stats(
    const std::vector<const runtime::PeerRuntime*>& peers) {
  runtime::RuntimeStats total;
  for (const runtime::PeerRuntime* peer : peers) {
    each_counter(total, peer->stats(),
                 [](std::uint64_t& a, std::uint64_t b) { a += b; });
  }
  return total;
}

runtime::RuntimeStats stats_delta(const runtime::RuntimeStats& after,
                                  const runtime::RuntimeStats& before) {
  runtime::RuntimeStats delta = after;
  each_counter(delta, before,
               [](std::uint64_t& a, std::uint64_t b) { a -= b; });
  return delta;
}

}  // namespace perfbench
