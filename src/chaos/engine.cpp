#include "chaos/engine.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "chaos/properties.hpp"
#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "net/latency.hpp"
#include "runtime/peer_runtime.hpp"
#include "sim/sweep_pool.hpp"

namespace updp2p::chaos {

namespace {

/// Purpose key for each peer's bootstrap view sample — distinct from the
/// runtime's protocol and retry-jitter streams under the same (seed, peer).
constexpr std::uint64_t kBootstrapPurpose = 0xB007C4;

/// mkdir -p: a data root like "build/chaos-sweep/storm/run-3" must come
/// into existence wholesale, or durable peers would silently fail to open
/// their stores and run volatile — which the monotone-awareness property
/// then (correctly) flags as forgotten state.
void make_dir(const std::string& path) {
  for (std::size_t slash = path.find('/', 1); slash != std::string::npos;
       slash = path.find('/', slash + 1)) {
    (void)::mkdir(path.substr(0, slash).c_str(), 0755);
  }
  if (!path.empty()) (void)::mkdir(path.c_str(), 0755);
}

[[nodiscard]] std::string format_time(common::SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", t);
  return buf;
}

/// One peer's slot in the cluster. The transport/runtime pair is recycled
/// by kill/restart; the store directory and the StoreFaults switchboard
/// persist across those lifetimes, exactly like a disk would.
struct PeerSlot {
  std::unique_ptr<net::InprocTransport> transport;
  std::unique_ptr<runtime::PeerRuntime> runtime;
  double skew = 1.0;              ///< local seconds per global second
  common::SimTime local = 0.0;    ///< skewed local clock (runs while dead)
  bool durable = false;
  std::shared_ptr<store::StoreFaults> faults;
  std::string data_dir;
  unsigned restarts = 0;
  unsigned wipes = 0;
  /// Content digest captured at kill time when the store was intact and
  /// fault-free; restart must recover exactly this.
  std::optional<common::Digest128> killed_digest;

  [[nodiscard]] bool alive() const noexcept { return runtime != nullptr; }
  [[nodiscard]] bool faulted() const noexcept {
    return faults && (faults->appends_failed > 0 ||
                      faults->snapshots_failed > 0 ||
                      faults->snapshots_torn > 0 || faults->fail_appends ||
                      faults->fail_snapshots || faults->torn_snapshots);
  }
};

class Engine {
 public:
  Engine(const Scenario& scenario, std::uint64_t seed,
         const ChaosOptions& options)
      : scenario_(scenario),
        seed_(seed),
        options_(options),
        injector_(scenario.population),
        tracker_(scenario.population) {
    UPDP2P_ENSURE(scenario_.durable.empty() || !options_.data_root.empty(),
                  "scenario has durable peers; ChaosOptions::data_root "
                  "must be set");
    report_.scenario = scenario_.name;
    report_.seed = seed;
    report_.mutation = options_.mutation;
  }

  ChaosReport run();

 private:
  void trace(const std::string& line) {
    if (options_.keep_trace) {
      report_.trace.push_back("t=" + format_time(now_) + " " + line);
    }
  }

  [[nodiscard]] runtime::RuntimeConfig runtime_config(common::PeerId id,
                                                      PeerSlot& slot) const {
    runtime::RuntimeConfig config;
    config.gossip.fanout_fraction = scenario_.fanout;
    config.gossip.estimated_total_replicas = scenario_.population;
    config.gossip.acks.enabled = scenario_.acks;
    config.retry.max_attempts = scenario_.retry_attempts;
    config.retry.initial_timeout = scenario_.retry_initial;
    config.round_duration = scenario_.round;
    config.tick_duration = scenario_.tick;
    config.seed = seed_;
    config.start_time = slot.local;
    if (slot.durable) {
      config.store.data_dir = slot.data_dir;
      config.store.snapshot_every_records = scenario_.snapshot_every;
      config.store.faults = slot.faults;
    }
    (void)id;
    return config;
  }

  [[nodiscard]] std::vector<common::PeerId> bootstrap_view(
      common::PeerId self) const {
    std::vector<common::PeerId> view;
    if (scenario_.view == 0) {
      for (std::size_t j = 0; j < scenario_.population; ++j) {
        if (j != self.value()) {
          view.emplace_back(static_cast<common::PeerId::rep_type>(j));
        }
      }
    } else {
      common::StreamRng rng(seed_, self.value(), kBootstrapPurpose);
      const auto others =
          static_cast<std::uint32_t>(scenario_.population - 1);
      const auto want = static_cast<std::uint32_t>(
          std::min<std::size_t>(scenario_.view, others));
      for (const std::uint32_t pick :
           rng.sample_without_replacement(others, want)) {
        view.emplace_back(pick >= self.value() ? pick + 1 : pick);
      }
    }
    return view;
  }

  void boot_peer(common::PeerId id, PeerSlot& slot) {
    slot.transport = network_->attach(id);
    slot.runtime = std::make_unique<runtime::PeerRuntime>(
        runtime_config(id, slot), *slot.transport);
    // A peer the scenario declares durable must actually have opened its
    // store — otherwise it silently runs volatile and every recovery
    // property downstream reports confusing "forgot state" violations
    // instead of the real problem (an unwritable data root).
    UPDP2P_ENSURE(!slot.durable || slot.runtime->durable(),
                  "chaos: durable peer failed to open its store; is the "
                  "data root writable?");
    slot.runtime->bootstrap(bootstrap_view(id));
  }

  void kill_peer(common::PeerId id, PeerSlot& slot, bool wipe);
  void restart_peer(common::PeerId id, PeerSlot& slot);
  void apply_op(const Op& op);
  void checkpoint(std::size_t phase_index);

  const Scenario& scenario_;
  std::uint64_t seed_;
  const ChaosOptions& options_;
  FaultInjector injector_;
  PropertyTracker tracker_;
  std::unique_ptr<net::InprocNetwork> network_;
  std::vector<PeerSlot> slots_;
  common::SimTime now_ = 0.0;
  std::vector<std::uint64_t> digest_words_;
  ChaosReport report_;
};

void Engine::kill_peer(common::PeerId id, PeerSlot& slot, bool wipe) {
  if (!slot.alive()) {
    trace("kill " + std::to_string(id.value()) + " (already dead, skipped)");
    return;
  }
  // A durable, fault-free, unwiped store must come back bit-identical;
  // anything else legitimately forgets.
  const bool store_intact = slot.durable && !wipe &&
                            slot.runtime->durable() && !slot.faulted();
  if (store_intact) {
    slot.killed_digest = slot.runtime->node().store().content_digest();
  } else {
    slot.killed_digest.reset();
  }
  // Runtime first (it borrows the transport), then the endpoint detaches.
  slot.runtime.reset();
  slot.transport.reset();
  if (wipe) {
    ++slot.wipes;
    (void)std::remove((slot.data_dir + "/wal.log").c_str());
    (void)std::remove((slot.data_dir + "/snapshot.bin").c_str());
  }
  if (wipe || !slot.durable) tracker_.note_state_lost(id);
  trace("kill " + std::to_string(id.value()) + (wipe ? " wipe" : ""));
}

void Engine::restart_peer(common::PeerId id, PeerSlot& slot) {
  if (slot.alive()) {
    trace("restart " + std::to_string(id.value()) +
          " (already alive, skipped)");
    return;
  }
  ++slot.restarts;
  boot_peer(id, slot);
  if (slot.killed_digest) {
    tracker_.check_recovery(id, *slot.killed_digest,
                            slot.runtime->node().store().content_digest());
    slot.killed_digest.reset();
  }
  trace("restart " + std::to_string(id.value()) + " recovered_records=" +
        std::to_string(slot.runtime->stats().wal_replayed));
}

void Engine::apply_op(const Op& op) {
  switch (op.kind) {
    case OpKind::kPartition:
      injector_.set_partition(op.groups);
      trace("partition into " + std::to_string(op.groups.size()) +
            "+ groups");
      break;
    case OpKind::kHeal:
      injector_.clear_network_faults();
      trace("heal");
      break;
    case OpKind::kLinkLoss:
      for (const common::PeerId from : op.peers) {
        for (const common::PeerId to : op.dst) {
          if (from != to) injector_.set_link_loss(from, to, op.a);
        }
      }
      trace("linkloss " + std::to_string(op.peers.size()) + "x" +
            std::to_string(op.dst.size()) + " links");
      break;
    case OpKind::kLinkDelay:
      for (const common::PeerId from : op.peers) {
        for (const common::PeerId to : op.dst) {
          if (from != to) injector_.set_link_delay(from, to, op.a);
        }
      }
      trace("linkdelay " + std::to_string(op.peers.size()) + "x" +
            std::to_string(op.dst.size()) + " links");
      break;
    case OpKind::kDuplicate:
      injector_.set_duplicate(op.a);
      trace("dup window");
      break;
    case OpKind::kReorder:
      injector_.set_reorder(op.a, op.b);
      trace("reorder window");
      break;
    case OpKind::kOffline:
      for (const common::PeerId id : op.peers) {
        PeerSlot& slot = slots_[id.value()];
        if (slot.alive()) slot.runtime->go_offline();
      }
      trace("offline " + std::to_string(op.peers.size()) + " peers");
      break;
    case OpKind::kOnline:
      for (const common::PeerId id : op.peers) {
        PeerSlot& slot = slots_[id.value()];
        if (slot.alive()) slot.runtime->go_online();
      }
      trace("online " + std::to_string(op.peers.size()) + " peers");
      break;
    case OpKind::kSkew:
      for (const common::PeerId id : op.peers) {
        slots_[id.value()].skew = op.a;
      }
      trace("skew x" + std::to_string(op.peers.size()));
      break;
    case OpKind::kKill:
      for (const common::PeerId id : op.peers) {
        kill_peer(id, slots_[id.value()], op.wipe);
      }
      break;
    case OpKind::kRestart:
      for (const common::PeerId id : op.peers) {
        restart_peer(id, slots_[id.value()]);
      }
      break;
    case OpKind::kDiskFault:
      for (const common::PeerId id : op.peers) {
        PeerSlot& slot = slots_[id.value()];
        if (!slot.faults) continue;  // volatile peer: benign no-op
        slot.faults->fail_appends = op.disk == DiskFaultMode::kAppends ||
                                    op.disk == DiskFaultMode::kAll;
        slot.faults->fail_snapshots = op.disk == DiskFaultMode::kSnapshots ||
                                      op.disk == DiskFaultMode::kAll;
        slot.faults->torn_snapshots = op.disk == DiskFaultMode::kTorn;
      }
      trace("disk-fault " + std::to_string(op.peers.size()) + " peers");
      break;
    case OpKind::kDiskOk:
      for (const common::PeerId id : op.peers) {
        PeerSlot& slot = slots_[id.value()];
        if (!slot.faults) continue;
        slot.faults->fail_appends = false;
        slot.faults->fail_snapshots = false;
        slot.faults->torn_snapshots = false;
      }
      trace("disk-ok " + std::to_string(op.peers.size()) + " peers");
      break;
    case OpKind::kSnapshot:
      for (const common::PeerId id : op.peers) {
        PeerSlot& slot = slots_[id.value()];
        if (slot.alive()) (void)slot.runtime->snapshot_now();
      }
      trace("snapshot " + std::to_string(op.peers.size()) + " peers");
      break;
    case OpKind::kPublish: {
      PeerSlot& slot = slots_[op.peer.value()];
      if (!slot.alive() || !slot.runtime->online()) {
        trace("publish " + op.key + " via " +
              std::to_string(op.peer.value()) +
              " skipped (peer dead/offline)");
        break;
      }
      // Deterministic payload: a function of the key and how many
      // publishes preceded it, never of wall time.
      const std::string payload =
          op.key + "#" + std::to_string(report_.published) + "@" +
          std::to_string(seed_);
      const auto id = slot.runtime->publish(op.key, payload);
      if (id) {
        ++report_.published;
        tracker_.note_published(*id, op.key, op.peer);
        trace("publish " + op.key + " via " +
              std::to_string(op.peer.value()) + " -> " + id->to_string());
      } else {
        trace("publish " + op.key + " via " +
              std::to_string(op.peer.value()) + " rejected");
      }
      break;
    }
  }
}

void Engine::checkpoint(std::size_t phase_index) {
  digest_words_.push_back(0xC4A05'0000 + phase_index);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const PeerSlot& slot = slots_[i];
    std::uint64_t flags = 0;
    if (slot.alive()) {
      flags |= 1;
      if (slot.runtime->online()) flags |= 2;
      const common::Digest128& digest =
          slot.runtime->node().store().content_digest();
      digest_words_.push_back(digest.hi);
      digest_words_.push_back(digest.lo);
    } else {
      digest_words_.push_back(0);
      digest_words_.push_back(0);
    }
    flags |= static_cast<std::uint64_t>(slot.restarts) << 8;
    flags |= static_cast<std::uint64_t>(slot.wipes) << 24;
    digest_words_.push_back(flags);
    if (slot.alive()) {
      const runtime::RuntimeStats& stats = slot.runtime->stats();
      digest_words_.push_back(stats.datagrams_out);
      digest_words_.push_back(stats.datagrams_in);
      digest_words_.push_back(stats.retransmits);
      digest_words_.push_back(stats.wal_appends);
    } else {
      for (int k = 0; k < 4; ++k) digest_words_.push_back(0);
    }
  }
  const net::InprocNetworkStats& net_stats = network_->stats();
  digest_words_.push_back(net_stats.datagrams_submitted);
  digest_words_.push_back(net_stats.datagrams_delivered);
  digest_words_.push_back(net_stats.dropped_loss);
  digest_words_.push_back(net_stats.dropped_offline);
  digest_words_.push_back(net_stats.dropped_policy);
  digest_words_.push_back(net_stats.datagrams_duplicated);
  injector_.fold(digest_words_);
}

ChaosReport Engine::run() {
  make_dir(options_.data_root);

  net::InprocNetworkConfig net_config;
  net_config.seed = seed_;
  net_config.loss_probability = scenario_.base_loss;
  if (scenario_.latency_hi > scenario_.latency_lo) {
    net_config.latency = std::make_shared<net::UniformLatency>(
        scenario_.latency_lo, scenario_.latency_hi);
  } else {
    net_config.latency =
        std::make_shared<net::ConstantLatency>(scenario_.latency_lo);
  }
  network_ = std::make_unique<net::InprocNetwork>(net_config);
  network_->set_link_policy(&injector_);
  injector_.set_mutation(options_.mutation);

  slots_.resize(scenario_.population);
  for (std::size_t i = 0; i < scenario_.population; ++i) {
    const common::PeerId id(static_cast<common::PeerId::rep_type>(i));
    PeerSlot& slot = slots_[i];
    slot.durable = scenario_.is_durable(id);
    if (slot.durable) {
      slot.data_dir = options_.data_root + "/peer-" + std::to_string(i);
      slot.faults = std::make_shared<store::StoreFaults>();
      // A run is a pure function of (scenario, seed): leftovers from a
      // previous run over the same data_root would replay into the node
      // (and, same seed, collide with freshly minted version ids).
      (void)std::remove((slot.data_dir + "/wal.log").c_str());
      (void)std::remove((slot.data_dir + "/snapshot.bin").c_str());
    }
    boot_peer(id, slot);
  }

  for (std::size_t p = 0; p < scenario_.phases.size(); ++p) {
    const Phase& phase = scenario_.phases[p];
    trace("--- phase " + std::to_string(p) + " (" +
          format_time(phase.duration) + "s)");
    // Ops fire back-to-back with no time elapsing between them; sequences
    // like `disk-fault torn; snapshot; kill` rely on that atomicity.
    for (const Op& op : phase.ops) apply_op(op);

    const common::SimTime end = now_ + phase.duration;
    while (now_ < end) {
      const common::SimTime next = std::min(now_ + scenario_.tick, end);
      const common::SimTime dt = next - now_;
      network_->advance_to(next);
      for (PeerSlot& slot : slots_) {
        slot.local += slot.skew * dt;  // a dead peer's clock keeps running
        if (slot.alive()) slot.runtime->poll(slot.local);
      }
      now_ = next;
    }

    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const PeerSlot& slot = slots_[i];
      if (slot.alive()) {
        tracker_.observe(common::PeerId(static_cast<common::PeerId::rep_type>(i)),
                         slot.runtime->node());
      }
    }
    checkpoint(p);
  }

  // Eventual delivery over the final live online set.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const PeerSlot& slot = slots_[i];
    if (slot.alive() && slot.runtime->online()) {
      tracker_.check_final(
          common::PeerId(static_cast<common::PeerId::rep_type>(i)),
          slot.runtime->node());
    }
  }

  report_.phases = scenario_.phases.size();
  report_.violations = tracker_.violations();
  report_.trace_digest = common::digest128(digest_words_);
  report_.network = network_->stats();
  report_.injector = injector_.stats();
  report_.peers.reserve(slots_.size());
  for (PeerSlot& slot : slots_) {
    PeerSummary summary;
    summary.alive = slot.alive();
    summary.online = slot.alive() && slot.runtime->online();
    summary.durable = slot.durable;
    summary.restarts = slot.restarts;
    summary.wipes = slot.wipes;
    if (slot.alive()) {
      summary.state = slot.runtime->node().store().content_digest();
      summary.stats = slot.runtime->stats();
    }
    report_.peers.push_back(summary);
  }
  // Teardown order: runtimes and endpoints before the network they borrow.
  for (PeerSlot& slot : slots_) {
    slot.runtime.reset();
    slot.transport.reset();
  }
  network_->set_link_policy(nullptr);
  return std::move(report_);
}

}  // namespace

ChaosReport run_scenario(const Scenario& scenario, std::uint64_t seed,
                         const ChaosOptions& options) {
  Engine engine(scenario, seed, options);
  return engine.run();
}

std::vector<ChaosReport> run_seed_sweep(const Scenario& scenario,
                                        std::span<const std::uint64_t> seeds,
                                        const ChaosOptions& options,
                                        unsigned threads) {
  make_dir(options.data_root);
  std::vector<ChaosReport> reports(seeds.size());
  sim::SweepPool::shared().run(
      static_cast<unsigned>(seeds.size()), threads, [&](unsigned i) {
        ChaosOptions run_options = options;
        if (!options.data_root.empty()) {
          run_options.data_root =
              options.data_root + "/run-" + std::to_string(i);
        }
        reports[i] = run_scenario(scenario, seeds[i], run_options);
      });
  return reports;
}

}  // namespace updp2p::chaos
