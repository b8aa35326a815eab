// ReplicaNode — one peer's complete hybrid push/pull protocol state.
//
// This is the library's primary public type. A node owns its versioned
// store, its partial replica view and the push/pull/ack state machines of
// the paper's §3 pseudocode plus the §6 optimisations. It is transport-
// agnostic: every event handler returns the messages the node wants sent,
// and the hosting environment (the bundled simulators, or a real network
// stack) delivers them — mirroring the paper's claim that propagation "may
// employ any point-to-point/multicast/ad-hoc communication mechanism".
//
// Timebase: handlers take the current push-round number. The event-driven
// simulator maps continuous time onto rounds; PF(t) itself depends only on
// the hop counter carried inside push messages, exactly as analysed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/chunked_peer_set.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "gossip/arena.hpp"
#include "gossip/config.hpp"
#include "gossip/forward_policy.hpp"
#include "gossip/messages.hpp"
#include "gossip/query.hpp"
#include "gossip/replica_view.hpp"
#include "version/store.hpp"

namespace updp2p::gossip {

/// Per-node protocol counters (all monotone; used by metrics & tests).
struct NodeStats {
  std::uint64_t pushes_received = 0;
  std::uint64_t duplicate_pushes = 0;     ///< push for an already-known version
  std::uint64_t pushes_forwarded = 0;     ///< outgoing push messages
  std::uint64_t forwards_suppressed = 0;  ///< PF(t) coin said no
  std::uint64_t updates_originated = 0;
  std::uint64_t updates_learned_push = 0;
  std::uint64_t updates_learned_pull = 0;
  std::uint64_t pull_requests_sent = 0;
  std::uint64_t pull_requests_received = 0;
  std::uint64_t pull_responses_received = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t members_discovered = 0;   ///< peers learned from partial lists
  std::uint64_t queries_issued = 0;
  std::uint64_t query_requests_received = 0;
  std::uint64_t query_replies_received = 0;
  std::uint64_t bytes_sent = 0;           ///< wire-model bytes of all sends
};

/// A multi-replica query in flight (§4.4).
struct StartedQuery {
  std::uint64_t nonce = 0;
  std::vector<OutboundMessage> messages;  ///< requests to transmit
};

/// Progress/result of a pending query.
struct QueryOutcome {
  std::optional<version::VersionedValue> value;
  std::size_t asked = 0;
  std::size_t replies = 0;
  bool complete = false;  ///< all replicas answered, or the query timed out
};

class ReplicaNode {
 public:
  /// `rng` is the node's private counter-based stream; drivers key it as
  /// StreamRng(run_seed, node_id) so a node's draw sequence is a pure
  /// function of the messages it handles, independent of global iteration
  /// order (the sharded-simulation determinism contract).
  ReplicaNode(common::PeerId self, GossipConfig config, common::StreamRng rng);

  /// Shares the driver-owned scratch arena (see arena.hpp). The node and
  /// its view fall back to a private arena when none is wired. Nodes
  /// sharing an arena must never execute concurrently.
  void use_arena(WorkArena* arena) noexcept {
    arena_ = arena;
    view_.use_arena(arena);
  }

  /// Seeds the initial membership view ("each replica knows a minimal
  /// fraction of the complete set of replicas", §2).
  void bootstrap(std::span<const common::PeerId> initial_view);

  /// Compressed-form bootstrap: absorbs the whole set in one word-parallel
  /// merge instead of one insert per id. Lets a simulator build the
  /// full-membership set once and share it across every node — at 100k
  /// replicas this is the difference between O(population) and
  /// O(population/64) words touched per node.
  void bootstrap(const common::ChunkedPeerSet& initial_view);

  /// Durable-store recovery (src/store/): seeds the node from a snapshot.
  /// Merges the persisted membership set (self-tolerant and idempotent)
  /// and applies every persisted version, marking it processed so a
  /// replayed or re-received push for it classifies as a duplicate —
  /// exactly the state the node would hold had it received those versions
  /// live. Call before delivering any live traffic.
  void import_durable_state(const common::ChunkedPeerSet& membership,
                            std::vector<version::VersionedValue> values);

  /// kFixedNeighbors mode: supplies the static target set — the "topology
  /// knowledge" a directional-gossip-like scheme [20] would maintain (e.g.
  /// peers observed online at bootstrap). Peers are also added to the view.
  void seed_fixed_neighbors(std::span<const common::PeerId> neighbors);

  // --- application-facing API ------------------------------------------------

  /// Writes locally and initiates the push phase (round 0 of the update).
  [[nodiscard]] std::vector<OutboundMessage> publish(std::string_view key,
                                                     std::string payload,
                                                     common::Round now);

  /// Deletes via tombstone and propagates the death certificate.
  [[nodiscard]] std::vector<OutboundMessage> remove(std::string_view key,
                                                    common::Round now);

  /// Local read (§4.4 "version scheme": deterministic winner); may be stale
  /// — check confident() or use query.hpp's multi-replica resolution.
  [[nodiscard]] std::optional<version::VersionedValue> read(
      std::string_view key) const {
    return store_.read(key);
  }

  /// §3: a peer is confident when it synced recently and nothing suggests
  /// it missed updates while offline.
  [[nodiscard]] bool confident(common::Round now) const;

  /// Issues a §4.4 query: asks up to `replicas_to_ask` sampled replicas for
  /// their versions of `key`. Transmit the returned messages, then call
  /// poll_query(nonce) as replies arrive.
  [[nodiscard]] StartedQuery begin_query(std::string_view key,
                                         QueryRule rule,
                                         std::size_t replicas_to_ask,
                                         common::Round now);

  /// Progress of a pending query. Once `complete` (all replies in, or
  /// kQueryTimeoutRounds elapsed) the resolved value reflects every answer
  /// received — including this node's own store — and the query state is
  /// released; later polls report an empty, complete outcome.
  [[nodiscard]] QueryOutcome poll_query(std::uint64_t nonce,
                                        common::Round now);

  // --- environment-driven events --------------------------------------------

  /// Delivers one protocol message; returns the node's reactions.
  [[nodiscard]] std::vector<OutboundMessage> handle_message(
      common::PeerId from, const GossipPayload& payload, common::Round now);

  /// Hot-path variant: appends the node's reactions to `out` instead of
  /// returning a fresh vector, so a driver can reuse one buffer across the
  /// whole round. With warm scratch buffers a push round performs no
  /// per-call container allocation beyond the outbound payloads themselves.
  void handle_message(common::PeerId from, const GossipPayload& payload,
                      common::Round now, std::vector<OutboundMessage>& out);

  /// Zero-copy delivery of one ENCODED frame (codec bytes, no transport
  /// framing). A cheap header probe classifies the message first: a push
  /// for an already-seen version — the dominant delivery at scale — is
  /// counted as a duplicate without decoding the version vector or the
  /// flooding list; a first receipt streams its flooding list into the
  /// arena's recv_list scratch (decode_push_into); other kinds decode
  /// fully and dispatch through handle_message. Returns false (with NO
  /// protocol-state change) when the frame is malformed. Behaviour and RNG
  /// draw order are bit-identical to decoding the frame and calling
  /// handle_message — the wire-equivalence suite pins this.
  [[nodiscard]] bool handle_frame(common::PeerId from,
                                  std::span<const std::byte> frame,
                                  common::Round now,
                                  std::vector<OutboundMessage>& out);

  /// The peer just came back online: enter the pull phase (§3), or arm the
  /// lazy-pull trigger (§6).
  [[nodiscard]] std::vector<OutboundMessage> on_reconnect(common::Round now);
  /// Appending hot-path variant of on_reconnect.
  void on_reconnect(common::Round now, std::vector<OutboundMessage>& out);

  /// Per-round timer processing: ack timeouts (§6 suppression) and the
  /// no-update-for-too-long pull trigger (§3).
  [[nodiscard]] std::vector<OutboundMessage> on_round_start(common::Round now);
  /// Appending hot-path variant of on_round_start.
  void on_round_start(common::Round now, std::vector<OutboundMessage>& out);

  /// The peer went offline; in-flight expectations are abandoned.
  void on_disconnect(common::Round now);

  // --- introspection ----------------------------------------------------------

  [[nodiscard]] common::PeerId id() const noexcept { return self_; }
  [[nodiscard]] const version::VersionedStore& store() const noexcept {
    return store_;
  }
  [[nodiscard]] version::VersionedStore& store() noexcept { return store_; }
  [[nodiscard]] const ReplicaView& view() const noexcept { return view_; }
  [[nodiscard]] ReplicaView& view() noexcept { return view_; }
  [[nodiscard]] const NodeStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const GossipConfig& config() const noexcept { return config_; }
  /// True while a lazy-pull is armed (reconnected, waiting for first push).
  [[nodiscard]] bool lazy_pull_armed() const noexcept { return lazy_waiting_; }
  /// Has this node stored the given version?
  [[nodiscard]] bool knows_version(const version::VersionId& id) const {
    return seen_versions_.contains(id);
  }

 private:
  // All internal handlers append to `out`; the returning public methods are
  // thin wrappers. This keeps the per-message path free of vector churn.
  void start_push(version::VersionedValue value, common::Round now,
                  std::vector<OutboundMessage>& out);
  void handle_push(common::PeerId from, const PushMessage& push,
                   common::Round now, std::vector<OutboundMessage>& out);
  /// §3's ProcessedUpdate check: records `id` as seen, does the receipt
  /// bookkeeping and returns true on first receipt.
  bool note_push_received(common::PeerId from, const version::VersionId& id);
  /// Common bookkeeping of every push receipt: counters and view refresh,
  /// plus duplicate accounting when `duplicates` (the version's count in
  /// seen_versions_) is non-null. Shared by the in-memory and frame paths
  /// so their observable behaviour cannot drift.
  void note_push_receipt(common::PeerId from, unsigned* duplicates);
  /// The first-receipt tail of handle_push (merge, apply, ack, forward);
  /// `flooded` may alias the arena's recv_list scratch.
  void handle_push_first(common::PeerId from, const SharedValue& value,
                         common::Round push_round,
                         const common::ChunkedPeerSet& flooded,
                         common::Round now, std::vector<OutboundMessage>& out);
  void handle_pull_request(common::PeerId from, const PullRequest& request,
                           common::Round now,
                           std::vector<OutboundMessage>& out);
  void handle_pull_response(common::PeerId from, const PullResponse& response,
                            common::Round now);
  void handle_ack(common::PeerId from, const AckMessage& ack);
  void handle_query_request(common::PeerId from, const QueryRequest& request,
                            common::Round now,
                            std::vector<OutboundMessage>& out);
  void handle_query_reply(common::PeerId from, const QueryReply& reply);

  /// Emits pull requests to `contacts_per_attempt` sampled peers (or to an
  /// explicit target for the lazy-pull-from-pusher case).
  void make_pull(common::Round now, std::vector<OutboundMessage>& out,
                 std::optional<common::PeerId> target = std::nullopt);

  void note_activity(common::Round now) noexcept {
    last_activity_round_ = now;
  }
  [[nodiscard]] OutboundMessage wrap(common::PeerId to, GossipPayload payload);

  common::PeerId self_;
  GossipConfig config_;
  common::StreamRng rng_;
  ReplicaView view_;
  version::VersionedStore store_;
  version::LocalWriter writer_;
  ForwardDecider forward_;
  NodeStats stats_;

  /// Chooses push targets per the configured TargetSelection policy. The
  /// returned reference aliases `targets_scratch_` and is valid until the
  /// next select_targets call.
  [[nodiscard]] std::vector<common::PeerId>& select_targets(std::size_t count,
                                                            common::Round now);

  /// Versions already processed — the pseudocode's ProcessedUpdate set.
  std::unordered_map<version::VersionId, unsigned> seen_versions_;

  /// kFixedNeighbors: the static target set, drawn once lazily.
  std::vector<common::PeerId> fixed_neighbors_;

  /// §6 ack bookkeeping: push targets we await an ack from.
  struct PendingAck {
    common::Round pushed_at;
  };
  std::unordered_map<common::PeerId, PendingAck> pending_acks_;

  /// §4.4 client-side query state, keyed by nonce.
  struct PendingQuery {
    std::string key;
    QueryRule rule = QueryRule::kHybrid;
    std::size_t asked = 0;
    std::vector<QueryAnswer> answers;
    common::Round started = 0;
  };
  std::unordered_map<std::uint64_t, PendingQuery> pending_queries_;
  std::uint64_t next_query_nonce_ = 1;

  /// The wired arena, or a lazily created private one (standalone nodes).
  [[nodiscard]] WorkArena& arena() const {
    if (arena_ != nullptr) return *arena_;
    if (!owned_arena_) owned_arena_ = std::make_unique<WorkArena>();
    return *owned_arena_;
  }
  WorkArena* arena_ = nullptr;
  mutable std::unique_ptr<WorkArena> owned_arena_;

  common::Round last_activity_round_ = 0;
  common::Round last_pull_round_ = 0;
  bool needs_sync_ = false;     ///< reconnected and not yet reconciled
  bool lazy_waiting_ = false;   ///< §6 lazy pull armed

  static constexpr common::Round kAckWaitRounds = 2;
  static constexpr common::Round kQueryTimeoutRounds = 4;
};

}  // namespace updp2p::gossip
