// Pieces shared by the two PeerRuntime workloads (cluster_durable over
// InprocNetwork, udp_loopback over UdpTransport): the peer bundle, the
// per-update awareness tracker and the end-to-end report.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "runtime/peer_runtime.hpp"
#include "timed_transport.hpp"

namespace perfbench {

/// One peer: the real endpoint, the timing decorator over it, and the
/// runtime that sends through the decorator.
struct Peer {
  std::unique_ptr<updp2p::net::Transport> endpoint;
  std::unique_ptr<TimedTransport> transport;
  std::unique_ptr<updp2p::runtime::PeerRuntime> runtime;
};

[[nodiscard]] std::vector<const updp2p::runtime::PeerRuntime*> runtimes_of(
    const std::vector<Peer>& peers);
[[nodiscard]] updp2p::net::TransportStats transport_totals(
    const std::vector<Peer>& peers);
[[nodiscard]] GossipTotals gossip_totals(const std::vector<Peer>& peers);
/// Every peer's view: all other peers of the population.
void bootstrap_full_views(std::vector<Peer>& peers);

/// Follows each published update until its window closes: the wall time
/// and the rounds until `target` of the online peers hold the version, and
/// F_aware when the window (`window_rounds` of virtual time) ends.
///
/// Rounds are read from a caller-supplied round clock: virtual time over
/// the round length on cluster_durable, delivery sweeps on udp_loopback
/// (where the stepped clock does not advance while datagrams flow). The
/// crossing is interpolated linearly between two observations.
///
/// Results go to `out`: update_ms and rounds_to_aware of every update that
/// reached the target, aware_frac of every closed window, and the
/// attempted/missed counts.
class UpdateTracker {
 public:
  UpdateTracker(double target, double window_rounds, double round_duration,
                Measured& out)
      : target_(target), window_(window_rounds), round_(round_duration),
        out_(out) {}

  void published(const updp2p::version::VersionId& id, double virtual_now,
                 double round_clock);
  /// Call after every clock step (every sweep on udp_loopback).
  void observe(const std::vector<Peer>& peers, double virtual_now,
               double round_clock);
  [[nodiscard]] bool idle() const noexcept { return pending_.empty(); }
  /// Some update is still short of its target.
  [[nodiscard]] bool awaiting() const noexcept {
    for (const Pending& update : pending_) {
      if (!update.reached) return true;
    }
    return false;
  }

 private:
  struct Pending {
    updp2p::version::VersionId id;
    double published_at = 0.0;  ///< virtual
    double wall_start = 0.0;
    double round_start = 0.0;   ///< round clock at publish
    double last_round = 0.0;    ///< round clock at the last observation
    double last_fraction = 0.0; ///< aware share of `needed` then
    bool reached = false;
  };
  double target_, window_, round_;
  Measured& out_;
  std::vector<Pending> pending_;
};

}  // namespace perfbench
