// cluster_durable: 64 durable PeerRuntimes over one InprocNetwork in
// virtual time, with §6 acks, 5 % datagram loss and 30 % of the peers
// offline, re-drawn every round. Set-up is crash recovery: an untimed fill
// phase writes every peer's WAL and snapshot, a simulated crash drops every
// runtime without snapshot_now(), and set-up restarts all 64 from disk.
// Everything here is a pure function of --seed, so every count repeats
// exactly from run to run.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "checks.hpp"
#include "common/rng.hpp"
#include "layers.hpp"
#include "net/inproc_transport.hpp"
#include "runtime_common.hpp"
#include "store/replica_store.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace updp2p;

namespace {

constexpr std::size_t kPeers = 64;
constexpr std::size_t kOffline = 19;  // 30 % of 64, re-drawn every round
constexpr double kLoss = 0.05;
constexpr double kFanout = 0.1;
constexpr double kRound = 1.0;  // virtual seconds per round
constexpr double kStep = 0.05;  // virtual clock step (= tick = latency)
constexpr std::size_t kKeys = 32;
constexpr std::size_t kValueBytes = 1000;
/// Snapshot cadence (records) while the fill phase writes the stores, so
/// a restart imports a snapshot and replays the WAL tail after it. The
/// restarted peers take no snapshots: each one costs two fsync(2)s, which
/// on a virtual disk now and then stall the single driving thread for
/// tens of ms, and with them update_ms_tail spread 42 % across ten seeds.
/// store.snapshot_ms times the write on its own.
constexpr std::uint64_t kFillSnapshotEvery = 256;
/// The push alone brings 80 % of the online peers in. Above that, 1-3 % of
/// updates wait for a retransmission (0.5 s ± 20 %) or a churn-driven
/// pull, and the tail percentile lands in that second, wide mode.
constexpr double kTarget = 0.80;
/// A 12-round window missed 2 of 15,000 updates; 30 rounds leaves the rare
/// update that spreads only through reconnect pulls room to arrive.
constexpr double kWindowRounds = 30.0;
/// Untimed rounds (one publish each) that write the stores before the crash.
constexpr int kFillRounds = 300;
constexpr int kSetupRepeats = 8;
/// Timed updates per second of --seconds: 1,500 at 30 s, about 10 s of
/// work on a 4-core x86 host. The count, not the time, is held: it sets the
/// tail percentile (rank n-10 is p99.3 here), and a deeper tail reaches the
/// wide mode of updates that wait for a retransmission.
constexpr double kUpdatesPerSecond = 50.0;

constexpr std::uint64_t kOnlinePurpose = 0x0111'7e;

/// `snapshot_every` = 0 disables the count-triggered snapshots.
runtime::RuntimeConfig make_config(std::uint64_t seed, const std::string& dir,
                                   double start_time,
                                   std::uint64_t snapshot_every) {
  runtime::RuntimeConfig config;
  config.gossip.fanout_fraction = kFanout;
  config.gossip.estimated_total_replicas = kPeers;
  config.gossip.acks.enabled = true;
  config.round_duration = kRound;
  config.tick_duration = kStep;
  config.seed = seed;
  config.start_time = start_time;
  config.store.data_dir = dir;
  config.store.snapshot_every_records = snapshot_every;
  return config;
}

std::string value_of(std::uint64_t seed, int update) {
  // ~1 KiB, distinct per update, deterministic in the seed.
  common::StreamRng rng(seed, static_cast<std::uint64_t>(update), 0x7a1);
  std::string value(kValueBytes, ' ');
  for (char& c : value) c = static_cast<char>('a' + rng.uniform_int(0, 25));
  return value;
}

/// The cluster: one network, 64 peers, a virtual clock.
class Cluster {
 public:
  Cluster(std::uint64_t seed, std::string root, NetCounters& counters)
      : seed_(seed), root_(std::move(root)), counters_(counters) {}

  /// Builds (or rebuilds from disk) every peer at virtual time `at`.
  void start(double at, std::uint64_t snapshot_every) {
    peers_.clear();
    net::InprocNetworkConfig net_config;
    net_config.seed = derive_seed(seed_, 0x4e37);
    net_config.loss_probability = kLoss;
    network_ = std::make_unique<net::InprocNetwork>(net_config);
    if (at > 0.0) network_->advance_to(at);
    now_ = at;
    peers_.resize(kPeers);
    for (std::size_t i = 0; i < kPeers; ++i) {
      Peer& peer = peers_[i];
      peer.endpoint =
          network_->attach(common::PeerId(static_cast<std::uint32_t>(i)));
      peer.transport =
          std::make_unique<TimedTransport>(*peer.endpoint, counters_);
      const Scope span(SpanName::kRuntimeRestart);
      peer.runtime = std::make_unique<runtime::PeerRuntime>(
          make_config(seed_, dir_of(i), at, snapshot_every), *peer.transport);
    }
    bootstrap_full_views(peers_);
  }

  /// Drops every runtime as a crash would: no snapshot, no flush.
  void crash() {
    peers_.clear();
    network_.reset();
  }

  [[nodiscard]] std::string dir_of(std::size_t i) const {
    return root_ + "/peer-" + std::to_string(i);
  }

  /// Round `round` begins: 30 % of the peers, drawn afresh, go offline.
  void redraw_online(std::uint64_t round) {
    common::StreamRng rng(seed_, round, kOnlinePurpose);
    std::vector<std::uint8_t> offline(kPeers, 0);
    for (const std::uint32_t i : rng.sample_without_replacement(
             static_cast<std::uint32_t>(kPeers),
             static_cast<std::uint32_t>(kOffline))) {
      offline[i] = 1;
    }
    for (std::size_t i = 0; i < kPeers; ++i) {
      runtime::PeerRuntime& rt = *peers_[i].runtime;
      if ((offline[i] != 0) == !rt.online()) continue;
      const Scope span(SpanName::kRuntimeSession);
      if (offline[i] != 0) {
        rt.go_offline();
      } else {
        rt.go_online();
      }
    }
  }

  /// Publishes from the first online peer at or after `start`.
  std::optional<version::VersionId> publish(std::size_t start,
                                            const std::string& key,
                                            std::string value) {
    for (std::size_t k = 0; k < kPeers; ++k) {
      runtime::PeerRuntime& rt = *peers_[(start + k) % kPeers].runtime;
      if (!rt.online()) continue;
      const Scope span(SpanName::kRuntimePublish);
      return rt.publish(key, std::move(value));
    }
    return std::nullopt;
  }

  void step(double to) {
    {
      const Scope span(SpanName::kNetAdvance);
      network_->advance_to(to);
    }
    for (Peer& peer : peers_) {
      const Scope span(SpanName::kRuntimePoll);
      peer.runtime->poll(to);
    }
    now_ = to;
  }

  [[nodiscard]] std::size_t pending_retries() const {
    std::size_t total = 0;
    for (const Peer& peer : peers_) total += peer.runtime->pending_retries();
    return total;
  }

  std::vector<Peer>& peers() { return peers_; }
  [[nodiscard]] double now() const { return now_; }

 private:
  std::uint64_t seed_;
  std::string root_;
  NetCounters& counters_;
  std::unique_ptr<net::InprocNetwork> network_;
  std::vector<Peer> peers_;
  double now_ = 0.0;
};

/// One virtual round: redraw churn, publish (when `publish` is set), step
/// the clock through the round.
struct RoundRunner {
  Cluster& cluster;
  std::uint64_t seed;
  UpdateTracker* tracker = nullptr;
  std::size_t pending_peak = 0;
  bool sample_pending = false;

  void run(std::uint64_t round, int update, bool publish) {
    const double start = static_cast<double>(round) * kRound;
    cluster.redraw_online(round);
    if (publish) {
      const auto id = cluster.publish(
          static_cast<std::size_t>(update) % kPeers,
          "key-" + std::to_string(static_cast<std::size_t>(update) % kKeys),
          value_of(seed, update));
      if (id && tracker != nullptr) {
        tracker->published(*id, cluster.now(), cluster.now() / kRound);
      }
    }
    const int steps = static_cast<int>(std::lround(kRound / kStep));
    for (int s = 1; s <= steps; ++s) {
      const double t = start + kStep * static_cast<double>(s);
      cluster.step(t);
      if (tracker != nullptr) tracker->observe(cluster.peers(), t, t / kRound);
      if (sample_pending) {
        pending_peak = std::max(pending_peak, cluster.pending_retries());
      }
    }
  }
};

/// Standalone recovery of each peer's store (traced run): open, then
/// snapshot import + WAL replay into a fresh node. Returns {open_ms,
/// replay_ms} per peer (means).
std::pair<double, double> probe_recovery(const Cluster& cluster,
                                         const runtime::RuntimeConfig& config,
                                         Report& report) {
  std::int64_t open_ns = 0, replay_ns = 0;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < kPeers; ++i) {
    store::StoreConfig store_config = config.store;
    store_config.data_dir = cluster.dir_of(i);
    std::string error;
    std::int64_t start = wall_ns();
    std::optional<store::ReplicaStore> opened;
    {
      const Scope span(SpanName::kStoreOpen);
      opened = store::ReplicaStore::open(store_config, &error);
    }
    open_ns += wall_ns() - start;
    if (!opened) {
      ++failures;
      continue;
    }
    start = wall_ns();
    {
      const Scope span(SpanName::kStoreReplay);
      gossip::ReplicaNode node(common::PeerId(static_cast<std::uint32_t>(i)),
                               config.gossip, common::StreamRng(config.seed, i));
      store::SnapshotData snapshot = opened->take_snapshot_state();
      node.import_durable_state(snapshot.membership,
                                std::move(snapshot.values));
      std::vector<gossip::OutboundMessage> discard;
      opened->replay([&](const store::ReplicaStore::RecoveredFrame& record) {
        discard.clear();
        if (!node.handle_frame(record.from, record.frame, record.round,
                               discard)) {
          ++failures;
        }
      });
    }
    replay_ns += wall_ns() - start;
  }
  report.check(failures == 0, "standalone recovery opens and replays");
  const double peers = static_cast<double>(kPeers);
  return {static_cast<double>(open_ns) / 1e6 / peers,
          static_cast<double>(replay_ns) / 1e6 / peers};
}

/// Median milliseconds of a standalone write_snapshot of real peer state.
double probe_snapshot(Cluster& cluster, const std::string& dir,
                      Report& report) {
  std::vector<double> samples;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < kPeers; i += 8) {
    std::filesystem::remove_all(dir);
    store::StoreConfig config;
    config.data_dir = dir;
    std::string error;
    auto opened = store::ReplicaStore::open(config, &error);
    if (!opened) {
      ++failures;
      continue;
    }
    const runtime::PeerRuntime& rt = *cluster.peers()[i].runtime;
    const std::int64_t start = wall_ns();
    {
      const Scope span(SpanName::kStoreSnapshot);
      if (!opened->write_snapshot(rt.node().view().membership(),
                                  rt.node().store().all_versions(), &error)) {
        ++failures;
      }
    }
    samples.push_back(static_cast<double>(wall_ns() - start) / 1e6);
  }
  std::filesystem::remove_all(dir);
  report.check(failures == 0, "standalone snapshots are written");
  return median(samples);
}

}  // namespace

void run_cluster_durable(const Options& options, Report& report) {
  add_provenance(report, 1);
  const std::uint64_t seed = derive_seed(options.seed, 0xD0AB);
  const std::string root = options.work_dir + "/cluster_durable-" +
                           std::to_string(options.seed) + "-" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  NetCounters counters;
  Cluster cluster(seed, root, counters);

  // --- fill phase (untimed): write every store, then crash ---------------
  cluster.start(0.0, kFillSnapshotEvery);
  RoundRunner fill{cluster, seed};
  std::uint64_t round = 0;
  int update = 0;
  for (int i = 0; i < kFillRounds; ++i) fill.run(round++, update++, true);
  check_durable(report, runtimes_of(cluster.peers()));
  std::vector<common::Digest128> before;
  for (const Peer& peer : cluster.peers()) {
    before.push_back(peer.runtime->node().store().content_digest());
  }
  const double crash_at = cluster.now();
  cluster.crash();

  // --- set-up: restart all peers from disk, several times ----------------
  tracer().enabled = options.trace;
  std::pair<double, double> recovery{0.0, 0.0};
  if (options.trace) {
    recovery = probe_recovery(cluster, make_config(seed, "", 0.0, 0), report);
  }
  Measured measured;
  std::uint64_t replayed = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    cluster.crash();
    const double start = wall_now();
    cluster.start(crash_at, /*snapshot_every=*/0);
    measured.setup_s.push_back(wall_now() - start);
    std::vector<common::Digest128> after;
    replayed = 0;
    for (const Peer& peer : cluster.peers()) {
      after.push_back(peer.runtime->node().store().content_digest());
      replayed += peer.runtime->stats().wal_replayed;
    }
    check_digests(report, before, after);
  }
  tracer().enabled = false;
  report.note("wal_frames_replayed_per_setup", std::to_string(replayed));

  // --- timed phase ------------------------------------------------------------
  const int timed = std::max(
      50, static_cast<int>(std::lround(options.seconds * kUpdatesPerSecond)));
  UpdateTracker tracker(kTarget, kWindowRounds, kRound, measured);
  RoundRunner runner{cluster, seed, &tracker};
  runner.sample_pending = options.trace;
  FrameCapture capture;
  if (options.trace) {
    for (Peer& peer : cluster.peers()) peer.transport->set_capture(&capture);
  }
  const runtime::RuntimeStats stats_before =
      sum_stats(runtimes_of(cluster.peers()));
  const net::TransportStats net_before = transport_totals(cluster.peers());
  const GossipTotals gossip_before = gossip_totals(cluster.peers());
  counters = NetCounters{};  // count the timed phase only
  std::vector<double> traced_round_ms, untraced_round_ms;
  const double cpu_start = cpu_seconds();
  const double wall_start = wall_now();
  for (int i = 0; i < timed || !tracker.idle(); ++i) {
    // A traced run traces one round in four (bounding the span memory);
    // the difference between the traced and untraced round times is the
    // tracing overhead.
    tracer().enabled = options.trace && i % 4 == 0;
    const double round_start = wall_now();
    runner.run(round++, update, i < timed);
    if (i < timed) ++update;
    (tracer().enabled ? traced_round_ms : untraced_round_ms)
        .push_back((wall_now() - round_start) * 1e3);
    tracer().enabled = false;
  }
  const double wall_used = wall_now() - wall_start;
  const double cpu_used = cpu_seconds() - cpu_start;
  for (Peer& peer : cluster.peers()) peer.transport->set_capture(nullptr);

  const runtime::RuntimeStats stats_after =
      sum_stats(runtimes_of(cluster.peers()));
  const net::TransportStats net_after = transport_totals(cluster.peers());
  check_durable(report, runtimes_of(cluster.peers()));
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
  report.note("clock", "virtual (InprocNetwork), 0.05 s steps, no sleeps");

  if (options.trace) {
    const double updates = static_cast<double>(timed);
    report_runtime_layers(report, delta,
                          static_cast<double>(runner.pending_peak), updates);
    report_net_layers(report, counters, net_after);
    report.layer("net.advance_us", span_mean_us(SpanName::kNetAdvance, false),
                 "us");
    report.layer("store.appends_per_update",
                 static_cast<double>(delta.wal_appends) / updates, "count");
    report.layer("store.snapshots_per_update",
                 static_cast<double>(delta.snapshots_written) / updates,
                 "count");
    report.layer("store.open_ms", recovery.first, "ms");
    report.layer("store.replay_ms", recovery.second, "ms");
    tracer().enabled = true;  // the store probes' spans go into the dump
    report.layer("store.snapshot_ms",
                 probe_snapshot(cluster, root + "/snapshot-probe", report),
                 "ms");
    report.layer("store.append_us",
                 replay_store_appends(capture, root + "/append-probe", report),
                 "us");
    tracer().enabled = false;
    report_gossip_ratios(report, gossip_totals(cluster.peers()) - gossip_before);
    report_codec(report, replay_codec(capture,
                                      make_config(seed, "", 0.0, 0).gossip,
                                      kPeers, report));
    report_trace(report, options, median(traced_round_ms),
                 median(untraced_round_ms));
  }
  cluster.crash();
  std::filesystem::remove_all(root);
}

}  // namespace perfbench
