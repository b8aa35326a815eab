#include "runtime_common.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

using namespace updp2p;

std::vector<const runtime::PeerRuntime*> runtimes_of(
    const std::vector<Peer>& peers) {
  std::vector<const runtime::PeerRuntime*> out;
  out.reserve(peers.size());
  for (const Peer& peer : peers) out.push_back(peer.runtime.get());
  return out;
}

net::TransportStats transport_totals(const std::vector<Peer>& peers) {
  net::TransportStats t;
  for (const Peer& peer : peers) {
    const net::TransportStats& s = peer.endpoint->stats();
    t.datagrams_sent += s.datagrams_sent;
    t.datagrams_received += s.datagrams_received;
    t.bytes_sent += s.bytes_sent;
    t.bytes_received += s.bytes_received;
    t.send_no_route += s.send_no_route;
    t.send_errors += s.send_errors;
    t.send_short_writes += s.send_short_writes;
    t.frames_rejected += s.frames_rejected;
    t.dropped_offline += s.dropped_offline;
  }
  return t;
}

GossipTotals gossip_totals(const std::vector<Peer>& peers) {
  GossipTotals t;
  for (const Peer& peer : peers) t.add(peer.runtime->node().stats());
  return t;
}

void bootstrap_full_views(std::vector<Peer>& peers) {
  std::vector<common::PeerId> view;
  view.reserve(peers.size());
  for (std::size_t i = 0; i < peers.size(); ++i) {
    view.clear();
    for (std::size_t j = 0; j < peers.size(); ++j) {
      if (j != i) view.emplace_back(static_cast<std::uint32_t>(j));
    }
    peers[i].runtime->bootstrap(view);
  }
}

void UpdateTracker::published(const version::VersionId& id,
                              double virtual_now, double round_clock) {
  Pending update;
  update.id = id;
  update.published_at = virtual_now;
  update.wall_start = wall_now();
  update.round_start = round_clock;
  update.last_round = round_clock;
  pending_.push_back(update);
}

void UpdateTracker::observe(const std::vector<Peer>& peers,
                            double virtual_now, double round_clock) {
  if (pending_.empty()) return;
  const double wall = wall_now();
  std::size_t online = 0;
  for (const Peer& peer : peers) online += peer.runtime->online() ? 1 : 0;
  const auto aware_online = [&](const version::VersionId& id) {
    std::size_t count = 0;
    for (const Peer& peer : peers) {
      if (peer.runtime->online() && peer.runtime->node().knows_version(id)) {
        ++count;
      }
    }
    return count;
  };
  const auto needed = static_cast<std::size_t>(
      std::ceil(target_ * static_cast<double>(online) - 1e-9));
  const auto closes = [&](const Pending& update) {
    return (virtual_now - update.published_at) / round_ >= window_ - 1e-9;
  };
  for (Pending& update : pending_) {
    if (!update.reached) {
      const double fraction =
          needed == 0 ? 1.0
                      : static_cast<double>(aware_online(update.id)) /
                            static_cast<double>(needed);
      if (fraction >= 1.0) {
        update.reached = true;
        out_.update_ms.push_back((wall - update.wall_start) * 1e3);
        // Interpolate the crossing between the previous observation and
        // this one.
        const double share =
            fraction > update.last_fraction
                ? (1.0 - update.last_fraction) /
                      (fraction - update.last_fraction)
                : 1.0;
        out_.rounds_to_aware.push_back(update.last_round - update.round_start +
                                       share * (round_clock - update.last_round));
      }
      update.last_round = round_clock;
      update.last_fraction = fraction;
    }
    if (closes(update)) {
      ++out_.attempted;
      if (!update.reached) ++out_.missed;
      out_.aware_frac.push_back(
          online == 0 ? 0.0
                      : static_cast<double>(aware_online(update.id)) /
                            static_cast<double>(online));
    }
  }
  std::erase_if(pending_, closes);
}

}  // namespace perfbench
