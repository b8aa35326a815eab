// Simulated point-to-point transport.
//
// Paper §3 deliberately ignores physical connectivity: "if two peers are
// online a communication channel may be established between them", and a
// peer that cannot be reached is indistinguishable from an offline peer.
// The bus therefore models only what the protocol observes — delivery to
// online peers, loss to offline ones — plus the bookkeeping the evaluation
// measures (message and byte counts, §4.1). Partitions and random loss are
// the driver's policy, recorded into the same counters.
//
// The bus is round-synchronous: messages sent during round t are delivered
// at the start of round t+1, matching the discrete-time analysis model. A
// sequential driver uses one shard; the parallel round engine uses one per
// worker.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace updp2p::net {

/// Aggregate transport statistics for one protocol run.
struct BusStats {
  std::uint64_t messages_sent = 0;       ///< all sends, incl. to offline peers
  std::uint64_t messages_delivered = 0;  ///< receiver was online
  std::uint64_t messages_to_offline = 0; ///< receiver offline: silently lost
  std::uint64_t messages_partitioned = 0;///< driver's link filter cut it
  std::uint64_t messages_dropped = 0;    ///< the driver's random loss
  std::uint64_t bytes_sent = 0;

  [[nodiscard]] double delivery_ratio() const noexcept {
    return messages_sent == 0
               ? 1.0
               : static_cast<double>(messages_delivered) /
                     static_cast<double>(messages_sent);
  }
};

/// In-flight or delivered message envelope.
///
/// Payloads are moved, never copied, between send and delivery. The round
/// simulator's payload is a 32-bit slot into the sending shard's round
/// outbox (sim::RoundOutbox), so its envelope is 16 bytes and a fan-out to
/// N recipients stores the message once; pgrid::ReplicatedIndex carries
/// the gossip::GossipPayload itself. Sizes are charged at send, into
/// BusStats::bytes_sent, and do not travel.
template <typename Payload>
struct Envelope {
  common::PeerId from;
  common::PeerId to;
  Payload payload;
  /// Per-sender monotone sequence number. (from, seq) is unique within a
  /// round, which gives the sharded bus a total delivery order that does
  /// not depend on shard layout or thread interleaving.
  std::uint32_t seq = 0;
};

/// Round-synchronous bus partitioned into per-(src_shard, dst_shard)
/// cells for parallel round execution.
///
/// The population [0, population) is cut into `shard_count` contiguous
/// blocks. During the parallel phase each shard task mutates only its own
/// row of cells (send_from_shard), its own column of in-flight cells
/// (collect_into) and its own stats slot, so no two threads ever touch the
/// same cell — the bus needs no locks. The protocol is two-phase:
///
///   1. begin_round() — sequential: every cell's pending buffer becomes the
///      in-flight buffer (messages sent in round t surface in round t+1,
///      the discrete-time model of §3).
///   2. collect_into(dst, batch, is_online) — one caller per dst shard, in
///      parallel: drops every in-flight envelope addressed to an offline
///      peer of `dst` (counted as messages_to_offline and destroyed at
///      once), then places the rest into the canonical (to, from, seq)
///      order. The canonical order makes the delivery sequence — and
///      therefore every downstream RNG draw — a pure function of the
///      message *set*, independent of shard count and thread
///      interleaving. (from, seq) is unique per sender, so the order has
///      no ties and no reliance on stability.
///
/// An envelope lives for exactly one round: sent in round t, collected (or
/// destroyed by the next begin_round) in round t+1. A slot payload that
/// indexes the sender's storage therefore needs that storage only until
/// the end of round t+1's parallel phase.
///
/// Offline receivers are the common case under the paper's availability
/// (most pushes go to offline peers), so they are dropped before any
/// ordering work. The rest of the delivery policy (partitions, random
/// loss) is the driver's job: it classifies each collected envelope and
/// records the outcome into its shard_stats(dst) slot; send-side counters
/// are kept by send_from_shard in the source shard's slot. stats() merges
/// all slots.
template <typename Payload>
class ShardedMessageBus {
 public:
  using EnvelopeT = Envelope<Payload>;

  ShardedMessageBus(std::size_t shard_count, std::size_t population)
      : shards_(shard_count == 0 ? 1 : shard_count),
        block_(population == 0 ? 1
                               : (population + shards_ - 1) / shards_),
        cells_(shards_ * shards_),
        slots_(shards_) {}

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_; }
  [[nodiscard]] std::size_t shard_of(common::PeerId peer) const noexcept {
    const std::size_t shard = peer.value() / block_;
    return shard < shards_ ? shard : shards_ - 1;
  }

  /// Enqueues a message from the parallel task that owns `src_shard`
  /// (which must be shard_of(from)). Thread-safe across *distinct* source
  /// shards by disjointness, not by locking.
  void send_from_shard(std::size_t src_shard, common::PeerId from,
                       common::PeerId to, Payload payload,
                       std::uint64_t size_bytes, std::uint32_t seq) {
    BusStats& stats = slots_[src_shard].stats;
    ++stats.messages_sent;
    stats.bytes_sent += size_bytes;
    cells_[src_shard * shards_ + shard_of(to)].pending.push_back(
        EnvelopeT{from, to, std::move(payload), seq});
  }

  /// Sequential-context convenience (round-0 publish, reconnect hooks).
  void send(common::PeerId from, common::PeerId to, Payload payload,
            std::uint64_t size_bytes, std::uint32_t seq) {
    send_from_shard(shard_of(from), from, to, std::move(payload), size_bytes,
                    seq);
  }

  /// Publishes the pending buffers: everything sent before this call
  /// becomes in-flight (deliverable this round); sends after it queue for
  /// the next round. Sequential — call between parallel phases.
  // holds(shard): sequential between parallel phases; no shard task runs
  void begin_round() {
    for (Cell& cell : cells_) {
      cell.inflight.clear();  // capacity retained
      std::swap(cell.pending, cell.inflight);
    }
  }

  /// Gathers the in-flight envelopes addressed to shard `dst_shard` into
  /// `batch` (replacing its contents), sorted by (to, from, seq). An
  /// envelope whose recipient fails `is_online(PeerId)` is dropped first:
  /// it is counted into shard_stats(dst_shard).messages_to_offline and
  /// destroyed before this call returns, so a ref-counted payload is
  /// released here rather than at the next begin_round. Kept envelopes
  /// are moved out and the column's cells are left empty (capacity
  /// retained); call once per shard per round, from the task owning
  /// `dst_shard`.
  ///
  /// Linear in the envelope count: a counting placement by recipient over
  /// the shard's contiguous id block, then a sort of each recipient's
  /// short run by (from, seq).
  template <typename OnlineProbe>
  void collect_into(std::size_t dst_shard, std::vector<EnvelopeT>& batch,
                    OnlineProbe&& is_online) {
    Slot& slot = slots_[dst_shard];
    // run_ends[k] counts, then bounds, the run of recipient first + k.
    // Ids past the population clamp into the last shard, so its block can
    // be wider than block_.
    std::vector<std::uint32_t>& run_ends = slot.run_ends;
    run_ends.assign(block_, 0);
    const std::uint64_t first = dst_shard * block_;
    std::uint64_t offline = 0;
    for (std::size_t src = 0; src < shards_; ++src) {
      std::vector<EnvelopeT>& cell = cells_[src * shards_ + dst_shard].inflight;
      std::size_t kept = 0;
      for (std::size_t i = 0; i < cell.size(); ++i) {
        if (!is_online(cell[i].to)) {
          ++offline;
          continue;
        }
        const std::uint64_t offset = cell[i].to.value() - first;
        if (offset >= run_ends.size()) run_ends.resize(offset + 1, 0);
        ++run_ends[offset];
        if (kept != i) cell[kept] = std::move(cell[i]);
        ++kept;
      }
      cell.erase(cell.begin() + static_cast<std::ptrdiff_t>(kept),
                 cell.end());
    }
    slot.stats.messages_to_offline += offline;

    // Exclusive prefix sum: run_ends[k] becomes the start of run k; each
    // placement then advances it, so it ends as the end of run k.
    std::uint32_t total = 0;
    for (std::uint32_t& entry : run_ends) {
      const std::uint32_t count = entry;
      entry = total;
      total += count;
    }
    batch.clear();
    batch.resize(total);
    for (std::size_t src = 0; src < shards_; ++src) {
      std::vector<EnvelopeT>& cell = cells_[src * shards_ + dst_shard].inflight;
      for (EnvelopeT& envelope : cell) {
        batch[run_ends[envelope.to.value() - first]++] = std::move(envelope);
      }
      cell.clear();
    }

    std::uint32_t begin = 0;
    for (const std::uint32_t end : run_ends) {
      if (end - begin > 1) {
        std::sort(batch.begin() + static_cast<std::ptrdiff_t>(begin),
                  batch.begin() + static_cast<std::ptrdiff_t>(end),
                  [](const EnvelopeT& a, const EnvelopeT& b) {
                    if (a.from != b.from) return a.from < b.from;
                    return a.seq < b.seq;
                  });
      }
      begin = end;
    }
  }

  /// The stats slot owned by `shard` — the parallel task records its
  /// delivery outcomes here without contention.
  [[nodiscard]] BusStats& shard_stats(std::size_t shard) noexcept {
    return slots_[shard].stats;
  }

  /// Merged view over all shard slots.
  // holds(shard): read-only merge run sequentially after the round joins
  [[nodiscard]] BusStats stats() const {
    BusStats merged;
    for (const Slot& slot : slots_) {
      merged.messages_sent += slot.stats.messages_sent;
      merged.messages_delivered += slot.stats.messages_delivered;
      merged.messages_to_offline += slot.stats.messages_to_offline;
      merged.messages_partitioned += slot.stats.messages_partitioned;
      merged.messages_dropped += slot.stats.messages_dropped;
      merged.bytes_sent += slot.stats.bytes_sent;
    }
    return merged;
  }

  // holds(shard): diagnostic count, called between rounds only
  [[nodiscard]] std::size_t pending_count() const noexcept {
    std::size_t total = 0;
    for (const Cell& cell : cells_) total += cell.pending.size();
    return total;
  }

 private:
  struct Cell {
    std::vector<EnvelopeT> pending;   ///< sends this round
    std::vector<EnvelopeT> inflight;  ///< deliverable this round
  };
  /// One shard's counters and collect_into's placement scratch. Padded so
  /// per-shard counters never false-share a cache line.
  struct alignas(64) Slot {
    BusStats stats;
    std::vector<std::uint32_t> run_ends;  ///< recipient run bounds
  };

  std::size_t shards_;
  std::size_t block_;
  std::vector<Cell> cells_;  ///< row-major [src][dst] — guarded-by(shard)
  std::vector<Slot> slots_;  // guarded-by(shard)
};

}  // namespace updp2p::net
