// udp_loopback: 128 PeerRuntimes, each on its own UdpTransport socket on
// 127.0.0.1, all driven from one thread. Configuration follows
// updp2p-peerd's defaults (acks on, f_r = 0.5, its round and retry
// settings); peers are volatile, with no churn and no injected loss, and
// values are small, so the cost per datagram dominates.
//
// Clock: PeerRuntime never reads a clock, so the benchmark steps a virtual
// one. It polls every peer until one full sweep drains no datagram, then
// jumps to the earliest next_deadline() or the next due publish. There
// are no sleeps; wall time is spent only on real work and syscalls.
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "checks.hpp"
#include "layers.hpp"
#include "net/udp_transport.hpp"
#include "runtime_common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace updp2p;

namespace {

constexpr std::size_t kPeers = 128;
constexpr std::size_t kKeys = 16;
constexpr double kTarget = 0.99;
constexpr double kWindowRounds = 8.0;
/// A cold start lasts only ~10 ms, so it is repeated often for its median.
constexpr int kSetupRepeats = 60;
/// Untimed updates before the timed phase: retries of an update run for
/// about 12 rounds, so the first updates meet fewer of them than later ones.
constexpr int kWarmupUpdates = 12;
/// Timed updates per second of --seconds (calibrated so a run measures
/// about --seconds on a 4-core x86 host).
constexpr double kUpdatesPerSecond = 3.3;

/// updp2p-peerd's defaults.
runtime::RuntimeConfig peerd_config(std::uint64_t seed) {
  runtime::RuntimeConfig config;
  config.seed = seed;
  config.round_duration = 0.25;
  config.gossip.fanout_fraction = 0.5;
  config.gossip.estimated_total_replicas = kPeers;
  config.gossip.acks.enabled = true;
  config.gossip.pull.contacts_per_attempt = 2;
  config.gossip.pull.no_update_timeout = 8;
  config.retry.initial_timeout = 0.1;
  config.retry.max_attempts = 5;
  config.retry.max_timeout = 2.0;
  config.tick_duration = 0.01;
  config.start_online = false;  // peerd constructs offline, then go_online()
  return config;
}

class UdpCluster {
 public:
  UdpCluster(std::uint64_t seed, NetCounters& counters, Report& report)
      : seed_(seed), counters_(counters), report_(report) {}

  /// Cold start: open and bind every socket, publish the directory, build
  /// and bootstrap the runtimes, go online (the §3 reconnect pull) and run
  /// the clock until the start-up exchange is quiet.
  void start() {
    peers_.clear();
    peers_.resize(kPeers);
    std::vector<net::UdpPeerAddress> directory;
    std::string error;
    for (std::size_t i = 0; i < kPeers; ++i) {
      net::UdpTransportConfig config;
      config.self = common::PeerId(static_cast<std::uint32_t>(i));
      std::unique_ptr<net::UdpTransport> socket;
      {
        const Scope span(SpanName::kNetOpen);
        socket = net::UdpTransport::open(config, &error);
      }
      report_.check(socket != nullptr, "UDP socket opens: " + error);
      if (!socket) throw std::runtime_error("cannot open UDP socket");
      directory.push_back(
          net::UdpPeerAddress{config.self, "127.0.0.1", socket->bound_port()});
      peers_[i].endpoint = std::move(socket);
    }
    for (Peer& peer : peers_) {
      auto& socket = static_cast<net::UdpTransport&>(*peer.endpoint);
      for (const auto& entry : directory) socket.add_route(entry);
      peer.transport = std::make_unique<TimedTransport>(socket, counters_);
      const Scope span(SpanName::kRuntimeConstruct);
      peer.runtime = std::make_unique<runtime::PeerRuntime>(
          peerd_config(seed_), *peer.transport);
    }
    bootstrap_full_views(peers_);
    now_ = 0.0;
    for (Peer& peer : peers_) {
      const Scope span(SpanName::kRuntimeSession);
      peer.runtime->go_online();
    }
    settle();
  }

  /// Polls every peer at the current virtual time until a whole sweep
  /// drains nothing. A sweep is this workload's delivery round: while an
  /// update is still short of its target the tracker observes after every
  /// poll (round clock = sweeps + share of the sweep done), otherwise once
  /// per sweep.
  void settle() {
    for (;;) {
      const std::uint64_t before = counters_.datagrams_drained;
      for (std::size_t i = 0; i < peers_.size(); ++i) {
        {
          const Scope span(SpanName::kRuntimePoll);
          peers_[i].runtime->poll(now_);
        }
        if (tracker_ != nullptr && tracker_->awaiting()) {
          tracker_->observe(peers_, now_,
                            static_cast<double>(sweeps_) +
                                static_cast<double>(i + 1) /
                                    static_cast<double>(peers_.size()));
        }
      }
      ++sweeps_;
      if (tracker_ != nullptr) {
        tracker_->observe(peers_, now_, static_cast<double>(sweeps_));
      }
      if (counters_.datagrams_drained == before) return;
    }
  }

  void set_tracker(UpdateTracker* tracker) noexcept { tracker_ = tracker; }

  /// Earliest timer deadline over all peers (+infinity when none).
  [[nodiscard]] double next_deadline() const {
    double next = std::numeric_limits<double>::infinity();
    for (const Peer& peer : peers_) {
      if (const auto at = peer.runtime->next_deadline()) {
        next = std::min(next, *at);
      }
    }
    return next;
  }

  /// Jumps the virtual clock forward (never backward) and settles there.
  void advance(double to) {
    // The wheel reports tick boundaries; a deadline already due is served
    // at the next representable instant so the clock always moves.
    now_ = std::max(to, std::nextafter(now_, std::numeric_limits<double>::max()));
    settle();
  }

  std::optional<version::VersionId> publish(std::size_t who,
                                            const std::string& key,
                                            std::string value) {
    const Scope span(SpanName::kRuntimePublish);
    auto id = peers_[who % kPeers].runtime->publish(key, std::move(value));
    return id;
  }

  [[nodiscard]] std::size_t pending_retries() const {
    std::size_t total = 0;
    for (const Peer& peer : peers_) total += peer.runtime->pending_retries();
    return total;
  }

  std::vector<Peer>& peers() { return peers_; }
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::uint64_t sweeps() const { return sweeps_; }

 private:
  std::uint64_t seed_;
  NetCounters& counters_;
  Report& report_;
  std::vector<Peer> peers_;
  UpdateTracker* tracker_ = nullptr;
  double now_ = 0.0;
  std::uint64_t sweeps_ = 0;
};

}  // namespace

void run_udp_loopback(const Options& options, Report& report) {
  add_provenance(report, 1);
  const std::uint64_t seed = derive_seed(options.seed, 0x0D9);
  NetCounters counters;
  UdpCluster cluster(seed, counters, report);

  // --- set-up: cold start to the first publish, several times ------------
  tracer().enabled = options.trace;
  Measured measured;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double start = wall_now();
    cluster.start();
    measured.setup_s.push_back(wall_now() - start);
  }
  tracer().enabled = false;
  const double round = peerd_config(seed).round_duration;

  // --- warm-up, then the timed phase: one publish per virtual round --------
  // The warm-up updates flow straight into the timed ones, so the first
  // timed update meets the retry traffic of a steady state.
  const int timed = std::max(
      20, static_cast<int>(std::lround(options.seconds * kUpdatesPerSecond)));
  const int total = kWarmupUpdates + timed;
  UpdateTracker tracker(kTarget, kWindowRounds, round, measured);
  FrameCapture capture;
  runtime::RuntimeStats stats_before;
  net::TransportStats net_before;
  GossipTotals gossip_before;
  std::vector<double> traced_round_ms, untraced_round_ms;
  std::size_t pending_peak = 0;
  double cpu_start = 0.0;
  double wall_start = 0.0;
  double next_publish = cluster.now();
  int published = 0;
  double round_wall_start = 0.0;
  while (published < total || !tracker.idle()) {
    if (published < total && cluster.now() >= next_publish) {
      const int index = published - kWarmupUpdates;  // < 0 while warming up
      if (index == 0) {
        cluster.set_tracker(&tracker);
        if (options.trace) {
          for (Peer& peer : cluster.peers()) {
            peer.transport->set_capture(&capture);
          }
        }
        stats_before = sum_stats(runtimes_of(cluster.peers()));
        net_before = transport_totals(cluster.peers());
        gossip_before = gossip_totals(cluster.peers());
        counters = NetCounters{};  // count the timed phase only
        cpu_start = cpu_seconds();
        wall_start = wall_now();
      }
      // A round boundary: close the previous round's wall sample, then
      // publish. A traced run traces every other timed round.
      if (index > 0) {
        (tracer().enabled ? traced_round_ms : untraced_round_ms)
            .push_back((wall_now() - round_wall_start) * 1e3);
      }
      tracer().enabled = options.trace && index >= 0 && index % 2 == 0;
      round_wall_start = wall_now();
      const auto id = cluster.publish(
          static_cast<std::size_t>(published),
          "key-" + std::to_string(static_cast<std::size_t>(published) % kKeys),
          "v" + std::to_string(published));
      report.check(id.has_value(), "an online peer can publish");
      if (id && index >= 0) {
        tracker.published(*id, cluster.now(),
                          static_cast<double>(cluster.sweeps()));
      }
      ++published;
      next_publish += round;
      cluster.settle();
    }
    if (options.trace && published > kWarmupUpdates) {
      pending_peak = std::max(pending_peak, cluster.pending_retries());
    }
    double next = cluster.next_deadline();
    if (published < total) next = std::min(next, next_publish);
    if (!std::isfinite(next)) break;
    cluster.advance(next);
  }
  tracer().enabled = false;
  const double wall_used = wall_now() - wall_start;
  const double cpu_used = cpu_seconds() - cpu_start;
  for (Peer& peer : cluster.peers()) peer.transport->set_capture(nullptr);

  const runtime::RuntimeStats stats_after =
      sum_stats(runtimes_of(cluster.peers()));
  const net::TransportStats net_after = transport_totals(cluster.peers());
  check_runtime_integrity(report, stats_after);
  const runtime::RuntimeStats delta = stats_delta(stats_after, stats_before);

  measured.wall_s = wall_used;
  measured.cpu_s = cpu_used;
  measured.messages = static_cast<double>(delta.datagrams_out);
  measured.bytes =
      static_cast<double>(net_after.bytes_sent - net_before.bytes_sent);
  report_end_to_end(report, measured);
  report.note("target_fraction", format_double(kTarget) +
                                     " of online peers within " +
                                     format_double(kWindowRounds) + " rounds");
  report.note("clock",
              "stepped virtual clock (sweep until quiet, jump to next "
              "deadline or publish), no sleeps");
  report.note("network",
              "traffic crossed the 127.0.0.1 loopback interface, not a real "
              "link");
  const auto lost = static_cast<std::int64_t>(net_after.datagrams_sent) -
                    static_cast<std::int64_t>(net_after.datagrams_received +
                                              net_after.dropped_offline +
                                              net_after.frames_rejected);
  report.note("loopback_datagrams_lost", std::to_string(lost));

  if (!options.trace) return;
  report_runtime_layers(report, delta, static_cast<double>(pending_peak),
                        static_cast<double>(timed));
  report_net_layers(report, counters, net_after);
  report.layer("net.loopback_lost", static_cast<double>(lost), "count");
  report_gossip_ratios(report, gossip_totals(cluster.peers()) - gossip_before);
  report_codec(report, replay_codec(capture, peerd_config(seed).gossip, kPeers,
                                    report));
  report_trace(report, options, median(traced_round_ms),
               median(untraced_round_ms));
}

}  // namespace perfbench
