// Correctness checks that fail a run. Each is one function so the
// workloads and the self-test (which breaks each condition on purpose and
// expects the check to fire) share exactly the same code.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "common/hash.hpp"
#include "runtime/peer_runtime.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

/// Every peer opened its durable store and appended to its WAL. A peer
/// whose data dir could not be created runs volatile with store_error()
/// set, which this catches.
void check_durable(Report& report,
                   const std::vector<const updp2p::runtime::PeerRuntime*>& peers);

/// Every restarted peer holds exactly the content it held before the crash.
void check_digests(Report& report,
                   const std::vector<updp2p::common::Digest128>& before,
                   const std::vector<updp2p::common::Digest128>& after);

/// Retransmissions reuse their bytes and no inbound frame failed to decode.
void check_runtime_integrity(Report& report,
                             const updp2p::runtime::RuntimeStats& totals);

/// Two simulator runs agree on every per-round count.
[[nodiscard]] bool same_metrics(const updp2p::sim::RunMetrics& a,
                                const updp2p::sim::RunMetrics& b);

/// Sums the counters of a set of runtimes.
[[nodiscard]] updp2p::runtime::RuntimeStats sum_stats(
    const std::vector<const updp2p::runtime::PeerRuntime*>& peers);
/// Counter-wise `after - before` of two sums taken around a phase.
[[nodiscard]] updp2p::runtime::RuntimeStats stats_delta(
    const updp2p::runtime::RuntimeStats& after,
    const updp2p::runtime::RuntimeStats& before);

}  // namespace perfbench
