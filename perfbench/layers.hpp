// Per-layer replays for the traced run: frames captured at the transport
// boundary are fed again, one layer at a time, through the codec, a
// standalone ReplicaNode and a standalone ReplicaStore, so each layer's
// cost per frame is measured on the traffic the workload really carried.
#pragma once

#include <string>

#include "common.hpp"
#include "gossip/config.hpp"
#include "gossip/node.hpp"
#include "runtime/peer_runtime.hpp"
#include "timed_transport.hpp"

namespace perfbench {

struct CodecReplay {
  double encode_ns = 0.0;       ///< gossip::encode_into per frame
  double probe_ns = 0.0;        ///< gossip::probe_frame per frame
  double decode_push_ns = 0.0;  ///< gossip::decode_push_into per push frame
  double decode_pull_ns = 0.0;  ///< gossip::decode per value-carrying pull
  double handle_first_ns = 0.0; ///< ReplicaNode::handle_frame, first receipt
  double handle_dup_ns = 0.0;   ///< ReplicaNode::handle_frame, duplicate
  std::size_t frames = 0;
};

/// Replays `frames` through the codec and through a fresh ReplicaNode
/// configured like the workload's peers (`population` peers in its view).
/// Every frame decodes (the workload's own encoder produced it), and the
/// node must accept every frame; `report` records both checks.
[[nodiscard]] CodecReplay replay_codec(const FrameCapture& frames,
                                       const updp2p::gossip::GossipConfig& config,
                                       std::size_t population, Report& report);

/// Appends every first-receipt frame (distinct pushed versions and
/// value-carrying pull responses) to a standalone ReplicaStore opened in
/// `dir`; returns the mean microseconds per append_frame.
[[nodiscard]] double replay_store_appends(const FrameCapture& frames,
                                          const std::string& dir,
                                          Report& report);

/// Adds the runtime-layer metrics shared by both runtime workloads.
void report_runtime_layers(Report& report,
                           const updp2p::runtime::RuntimeStats& totals,
                           double pending_retries_peak, double updates);

/// Adds the net.* metrics from the decorator counters and the send/drain
/// spans, plus runtime.poll_self_us (poll minus its transport spans).
void report_net_layers(Report& report, const NetCounters& counters,
                       const updp2p::net::TransportStats& transport_totals);

/// NodeStats summed over a population, for before/after deltas.
struct GossipTotals {
  double pushes_received = 0.0;
  double duplicate_pushes = 0.0;
  double learned_push = 0.0;
  double learned_pull = 0.0;

  void add(const updp2p::gossip::NodeStats& stats);
  [[nodiscard]] GossipTotals operator-(const GossipTotals& other) const;
};

/// Adds gossip.dup_frac and gossip.learned_pull_frac from a delta.
void report_gossip_ratios(Report& report, const GossipTotals& delta);

/// Adds the codec.* / gossip.handle_frame_* metrics of a replay.
void report_codec(Report& report, const CodecReplay& replay);

/// Writes the tracer's spans under `work_dir` and reports the span count
/// and the tracing overhead (traced over untraced median, minus one).
void report_trace(Report& report, const Options& options,
                  double traced_median, double untraced_median);

/// Every per-layer metric name with its unit, in output order. A traced run
/// fills in what its workload measures; the rest print as 0 ("this layer
/// does no work on this workload") and are listed in a note.
void fill_missing_layers(Report& report);

}  // namespace perfbench
