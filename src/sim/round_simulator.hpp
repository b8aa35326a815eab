// Round-synchronous simulator of the push phase (+ optional pull), the
// discrete-time model of paper §3/§4.1: messages sent in round t are
// processed in round t+1, online peers stay with probability σ per round,
// and the per-round metrics mirror the analysis' M(t) and F_aware(t).
//
// This simulator is an *independent* implementation of the protocol (it
// executes ReplicaNode state machines, not the recurrences), so agreement
// with analysis::evaluate_push is a genuine cross-validation.
//
// Intra-run parallelism: the population is cut into `shard_threads`
// contiguous shards. Each round, every shard task delivers the messages
// addressed to its own nodes (collected from the sharded bus in canonical
// (to, from, seq) order) and runs its nodes' timers; churn, hooks and
// metric merging stay sequential between rounds. Results are
// bit-identical at ANY shard/thread count: node RNGs are counter-based
// per-node streams, loss draws are keyed by (seed, recipient, round), the
// delivery order is canonical, and every merged counter is a sum. See
// DESIGN.md "Sharded round engine".
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "churn/churn_model.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "gossip/arena.hpp"
#include "gossip/codec.hpp"
#include "gossip/node.hpp"
#include "net/message_bus.hpp"
#include "sim/metrics.hpp"

namespace updp2p::sim {

struct RoundSimConfig {
  std::size_t population = 1'000;
  gossip::GossipConfig gossip;
  /// Peers each replica initially knows (0 = the full replica set, the
  /// paper's analysis assumption; small values exercise the name-dropper
  /// membership growth).
  std::size_t initial_view_size = 0;
  common::Round max_rounds = 200;
  /// Stop when no protocol message has been exchanged for this many rounds.
  common::Round quiescence_rounds = 3;
  /// Run the pull machinery for peers that come online mid-run.
  bool reconnect_pull = true;
  /// Run per-round timer processing (no-update-timeout pulls, ack expiry).
  bool round_timers = true;
  double message_loss = 0.0;
  /// Serialise every payload through the binary wire codec on send (one
  /// encode per fan-out, stored once in the sender's RoundOutbox) and
  /// deliver via ReplicaNode::handle_frame (probe + lazy decode) —
  /// integration-proves gossip/codec end to end. Byte counters charge
  /// exact encoded sizes in BOTH modes (OutboundMessage::size_bytes ==
  /// encoded frame length), so metrics are bit-identical with this flag on
  /// or off.
  bool serialize_messages = false;
  std::uint64_t seed = 0x5eed;
  /// Shards (= maximum worker threads) one round is stepped across.
  /// 1 = sequential; 0 = one per hardware thread. Metrics and node state
  /// are bit-identical at every value.
  unsigned shard_threads = 1;
};

/// One shard's sends of one round, addressed by slot: the simulator's bus
/// carries a 32-bit slot into the sending shard's outbox, not the message.
/// A wire-mode outbox holds the encoded frames back to back in one byte
/// arena, with an (offset, length) per slot; delivery goes through
/// ReplicaNode::handle_frame (probe + lazy decode), so the run exercises
/// exactly what a deployment would receive. An in-memory outbox holds the
/// GossipPayloads.
///
/// A push forwarded to N targets arrives as N OutboundMessages sharing one
/// SharedValue and one SharedPeerList, so put() keys the last stored push
/// on those identities plus the round and gives the other N-1 targets its
/// slot: a fan-out is encoded (or stored) once. The key holds STRONG
/// references to the value and list. Identities are compared as pointers,
/// and keeping the objects alive is what makes that sound: a freed
/// allocation could otherwise come back at the same address with other
/// contents. Only pushes share a slot; they are the only kind fanned out.
///
/// One writer: the task of the owning shard, or the sequential phase.
/// Other shards only read slots, in the round after they were written; the
/// alignment keeps those reads off the cache lines the owner is writing.
class alignas(64) RoundOutbox {
 public:
  explicit RoundOutbox(bool wire = false) : wire_(wire) {}

  /// Stores `payload` and returns its slot. A push that continues the last
  /// stored push's fan-out gets that push's slot and `payload` is left as
  /// it was; otherwise wire mode encodes it (leaving it as it was) and
  /// memory mode moves it in.
  [[nodiscard]] std::uint32_t put(gossip::GossipPayload&& payload);

  /// Wire mode: the frame in `slot`, byte for byte gossip::encode of the
  /// payload stored there.
  [[nodiscard]] std::span<const std::byte> frame(std::uint32_t slot) const {
    const FrameSpan& span = frames_[slot];
    return std::span<const std::byte>(bytes_).subspan(span.offset,
                                                      span.length);
  }
  /// Memory mode: the payload in `slot`.
  [[nodiscard]] const gossip::GossipPayload& payload(
      std::uint32_t slot) const {
    return payloads_[slot];
  }
  /// Distinct messages stored since the last clear().
  [[nodiscard]] std::size_t size() const noexcept {
    return wire_ ? frames_.size() : payloads_.size();
  }

  /// Forgets every slot and the fan-out key; capacity is retained.
  void clear();

 private:
  struct FrameSpan {
    std::uint32_t offset;
    std::uint32_t length;
  };
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  bool wire_;
  gossip::WireBytes bytes_;                      ///< wire: frames back to back
  std::vector<FrameSpan> frames_;                ///< wire: one per slot
  std::vector<gossip::GossipPayload> payloads_;  ///< memory: one per slot
  gossip::WireBytes scratch_;  ///< wire: one encode before it is appended
  // The fan-out key: the last stored push's value, list and round.
  gossip::SharedValue key_value_;
  gossip::SharedPeerList key_list_;
  common::Round key_round_ = 0;
  std::uint32_t key_slot_ = kNoSlot;
};

class RoundSimulator {
 public:
  /// The churn model's population must match `config.population`.
  RoundSimulator(RoundSimConfig config,
                 std::unique_ptr<churn::ChurnModel> churn);

  /// Propagates one update published by `initiator` (or by a random
  /// online peer when nullopt), continuing from the current round, churn
  /// state and in-flight messages: only the per-update metric tracking
  /// starts afresh, so consecutive calls model a sequence of updates on
  /// one network. Returns the per-round metrics of this update's
  /// dissemination; their `round` fields are absolute
  /// (RunMetrics::rounds_to_quiescence() is relative to the first).
  RunMetrics propagate_update(
      std::optional<common::PeerId> initiator = std::nullopt,
      std::string key = "item", std::string payload = "v1");

  /// Runs `rounds` additional rounds of the current network (message
  /// delivery, churn, timers) without publishing; used to exercise the
  /// pull phase after a push completed.
  void run_rounds(common::Round rounds);

  [[nodiscard]] gossip::ReplicaNode& node(common::PeerId peer) {
    return nodes_.at(peer.value());
  }
  [[nodiscard]] const gossip::ReplicaNode& node(common::PeerId peer) const {
    return nodes_.at(peer.value());
  }
  [[nodiscard]] std::size_t population() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const churn::ChurnModel& churn() const noexcept {
    return *churn_;
  }
  [[nodiscard]] const net::BusStats& bus_stats() const {
    merged_bus_stats_ = bus_.stats();
    return merged_bus_stats_;
  }
  /// Shards one round is stepped across (resolved from shard_threads).
  [[nodiscard]] unsigned shard_count() const noexcept { return shard_count_; }
  /// Installs a connectivity predicate (network partitions); nullptr heals.
  /// The predicate is invoked concurrently from shard tasks and must be
  /// safe to call from multiple threads (pure functions are).
  void set_link_filter(
      std::function<bool(common::PeerId, common::PeerId)> filter) {
    link_filter_ = std::move(filter);
  }
  [[nodiscard]] common::Round current_round() const noexcept { return round_; }

  /// Fraction of *online* peers that know `id` (the paper's F_aware).
  [[nodiscard]] double aware_fraction(const version::VersionId& id) const;
  /// Count of online peers knowing `id`.
  [[nodiscard]] std::size_t aware_online(const version::VersionId& id) const;

 private:
  /// Per-shard state: the scratch arena shared by the shard's nodes, the
  /// two round outboxes, the delivery batch, the reaction buffer, and this
  /// round's counters. The whole block is cache-line aligned so two shard
  /// tasks never false-share counter lines.
  struct alignas(64) Shard {
    gossip::WorkArena arena;
    /// Indexed by round parity: round t's sends go to outbox[t & 1], are
    /// read by every shard in round t+1, and are cleared by this shard at
    /// the start of its task in round t+2.
    std::array<RoundOutbox, 2> outbox;
    std::vector<net::Envelope<std::uint32_t>> batch;
    std::vector<gossip::OutboundMessage> reactions;
    std::uint64_t push_messages = 0;
    std::uint64_t pull_messages = 0;
    std::uint64_t ack_messages = 0;
    std::uint64_t query_messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t new_aware = 0;  ///< awareness gained this round (summed)

    void reset_counters() noexcept {
      push_messages = pull_messages = ack_messages = query_messages = 0;
      bytes = duplicates = new_aware = 0;
    }
  };

  /// Moves `out`'s messages onto the bus from the task owning `shard`
  /// (which must be the sender's shard), classifying them for the shard's
  /// counters. `out` is left cleared with capacity retained.
  void dispatch_from(std::size_t shard, common::PeerId from,
                     std::vector<gossip::OutboundMessage>& out);
  /// Sequential-context dispatch (publish, reconnect hooks).
  void dispatch(common::PeerId from, std::vector<gossip::OutboundMessage>& out);
  void step_round(RunMetrics* metrics);
  /// One shard's slice of a round: deliver this shard's batch, then run
  /// its nodes' timers. Runs concurrently with other shards.
  void step_shard(unsigned shard);
  /// Arms incremental awareness tracking for `id` (the update being
  /// propagated): O(population) once, then O(1) per awareness change.
  void start_tracking(const version::VersionId& id);
  /// Folds a just-handled delivery into the shard's awareness counter.
  void note_awareness(std::uint32_t node_index, Shard& shard);

  RoundSimConfig config_;
  std::unique_ptr<churn::ChurnModel> churn_;
  /// Sequential-phase draws only (churn advance, publisher pick,
  /// bootstrap); never touched by shard tasks.
  common::Rng rng_;
  std::vector<gossip::ReplicaNode> nodes_;
  /// Carries slots into the sending shard's round outbox.
  net::ShardedMessageBus<std::uint32_t> bus_;
  std::function<bool(common::PeerId, common::PeerId)> link_filter_;
  unsigned shard_count_ = 1;
  std::vector<Shard> shards_;
  common::Round round_ = 0;

  // SoA hot-path node state, owned here so shard tasks touch flat arrays
  // instead of chasing per-node heap blocks. Element i is written only by
  // the shard that owns node i (or by the sequential phases), so plain
  // byte/word arrays are race-free.
  std::vector<std::uint8_t> online_;     ///< churn snapshot read by shards
  std::vector<std::uint8_t> aware_;      ///< i knows tracked_id_ — guarded-by(shard)
  std::vector<std::uint32_t> send_seq_;  ///< sender seq — guarded-by(shard)

  // Incremental metric state: awareness used to be an O(population) rescan
  // per round; shard tasks count newly-aware nodes and the merge step sums
  // them into aware_online_count_.
  bool tracking_ = false;
  version::VersionId tracked_id_{};
  std::size_t aware_online_count_ = 0;  ///< |{i : aware_[i] ∧ online(i)}|

  /// Reusable buffer for sequential-phase reactions (reconnect hooks).
  std::vector<gossip::OutboundMessage> reactions_scratch_;

  mutable net::BusStats merged_bus_stats_;
};

/// Convenience: builds the simulator matching the analysis-model population
/// (BernoulliChurn with initial fraction and σ, no rejoins).
[[nodiscard]] std::unique_ptr<RoundSimulator> make_push_phase_simulator(
    RoundSimConfig config, double initial_online_fraction, double sigma);

}  // namespace updp2p::sim
