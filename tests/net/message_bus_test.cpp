#include "net/message_bus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"

namespace updp2p::net {
namespace {

using common::PeerId;
using common::Rng;

auto always_online = [](PeerId) { return true; };

using ShardedStringBus = ShardedMessageBus<std::string>;

// MessageBus: the round-synchronous §3 bus as the sequential drivers
// (pgrid::ReplicatedIndex) use it — one shard, one collect per round, the
// driver counting deliveries.

/// One driver round: publish what was sent, collect it, count deliveries.
std::vector<ShardedStringBus::EnvelopeT> deliver_round(
    ShardedStringBus& bus, const std::function<bool(PeerId)>& is_online) {
  std::vector<ShardedStringBus::EnvelopeT> batch;
  bus.begin_round();
  bus.collect_into(0, batch, is_online);
  bus.shard_stats(0).messages_delivered += batch.size();
  return batch;
}

TEST(MessageBus, DeliversToOnlinePeers) {
  ShardedStringBus bus(1, 3);
  bus.send(PeerId(1), PeerId(2), "hello", 10, 0);
  EXPECT_EQ(bus.pending_count(), 1u);
  const auto delivered = deliver_round(bus, always_online);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].from, PeerId(1));
  EXPECT_EQ(delivered[0].to, PeerId(2));
  EXPECT_EQ(delivered[0].payload, "hello");
  EXPECT_EQ(bus.stats().bytes_sent, 10u);
  EXPECT_EQ(bus.pending_count(), 0u);
}

TEST(MessageBus, DropsMessagesToOfflinePeers) {
  ShardedStringBus bus(1, 4);
  bus.send(PeerId(1), PeerId(2), "a", 1, 0);
  bus.send(PeerId(1), PeerId(3), "b", 1, 1);
  const auto delivered =
      deliver_round(bus, [](PeerId to) { return to == PeerId(3); });
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].payload, "b");
  EXPECT_EQ(bus.stats().messages_to_offline, 1u);
  EXPECT_EQ(bus.stats().messages_delivered, 1u);
}

TEST(MessageBus, StatsAccumulate) {
  ShardedStringBus bus(1, 3);
  bus.send(PeerId(1), PeerId(2), "x", 100, 0);
  bus.send(PeerId(1), PeerId(2), "y", 50, 1);
  (void)deliver_round(bus, always_online);
  EXPECT_EQ(bus.stats().messages_sent, 2u);
  EXPECT_EQ(bus.stats().bytes_sent, 150u);
  EXPECT_DOUBLE_EQ(bus.stats().delivery_ratio(), 1.0);
  // Counters accumulate across rounds.
  bus.send(PeerId(2), PeerId(1), "z", 5, 0);
  (void)deliver_round(bus, always_online);
  EXPECT_EQ(bus.stats().messages_sent, 3u);
  EXPECT_EQ(bus.stats().bytes_sent, 155u);
  EXPECT_EQ(bus.stats().messages_delivered, 3u);
}

TEST(MessageBus, EmptyRoundDeliversNothing) {
  ShardedStringBus bus(1, 3);
  EXPECT_TRUE(deliver_round(bus, always_online).empty());
  EXPECT_DOUBLE_EQ(bus.stats().delivery_ratio(), 1.0);  // vacuous
}

TEST(MessageBus, MessagesQueueAcrossSends) {
  // One sender's messages arrive in send (seq) order.
  ShardedStringBus bus(1, 2);
  bus.send(PeerId(0), PeerId(1), "first", 1, 0);
  bus.send(PeerId(0), PeerId(1), "second", 1, 1);
  const auto delivered = deliver_round(bus, always_online);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].payload, "first");
  EXPECT_EQ(delivered[1].payload, "second");
}

// ---------------------------------------------------------------------------
// ShardedMessageBus: the two-phase, per-(src, dst)-cell bus behind the
// parallel round engine.

TEST(ShardedMessageBus, ShardOfPartitionsContiguously) {
  ShardedStringBus bus(/*shard_count=*/4, /*population=*/100);
  EXPECT_EQ(bus.shard_count(), 4u);
  EXPECT_EQ(bus.shard_of(PeerId(0)), 0u);
  EXPECT_EQ(bus.shard_of(PeerId(24)), 0u);
  EXPECT_EQ(bus.shard_of(PeerId(25)), 1u);
  EXPECT_EQ(bus.shard_of(PeerId(99)), 3u);
  // Ids past the population clamp into the last shard instead of indexing
  // out of bounds.
  EXPECT_EQ(bus.shard_of(PeerId(1'000)), 3u);
}

TEST(ShardedMessageBus, TwoPhaseDelivery) {
  ShardedStringBus bus(2, 10);
  bus.send(PeerId(0), PeerId(7), "early", 5, /*seq=*/0);
  EXPECT_EQ(bus.pending_count(), 1u);
  EXPECT_EQ(bus.stats().bytes_sent, 5u);  // charged at send
  bus.begin_round();
  EXPECT_EQ(bus.pending_count(), 0u);
  // Sends after begin_round queue for the NEXT round.
  bus.send(PeerId(1), PeerId(7), "late", 4, /*seq=*/0);

  std::vector<ShardedStringBus::EnvelopeT> batch;
  bus.collect_into(bus.shard_of(PeerId(7)), batch, always_online);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].payload, "early");
  EXPECT_EQ(batch[0].from, PeerId(0));
  EXPECT_EQ(bus.stats().bytes_sent, 9u);

  bus.begin_round();
  bus.collect_into(bus.shard_of(PeerId(7)), batch, always_online);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].payload, "late");
}

TEST(ShardedMessageBus, CollectSortsCanonically) {
  // Envelopes arrive sorted by (to, from, seq) regardless of the send
  // order or which source shard they came from — the property that makes
  // delivery order independent of shard scheduling.
  ShardedStringBus bus(4, 40);
  bus.send_from_shard(bus.shard_of(PeerId(30)), PeerId(30), PeerId(3), "d",
                      1, 0);
  bus.send_from_shard(bus.shard_of(PeerId(5)), PeerId(5), PeerId(2), "b2",
                      1, 7);
  bus.send_from_shard(bus.shard_of(PeerId(5)), PeerId(5), PeerId(2), "b1",
                      1, 3);
  bus.send_from_shard(bus.shard_of(PeerId(12)), PeerId(12), PeerId(2), "c",
                      1, 0);
  bus.send_from_shard(bus.shard_of(PeerId(20)), PeerId(20), PeerId(1), "a",
                      1, 0);
  bus.begin_round();

  std::vector<ShardedStringBus::EnvelopeT> batch;
  bus.collect_into(0, batch, always_online);  // peers 0..9: shard 0
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch[0].payload, "a");   // to=1
  EXPECT_EQ(batch[1].payload, "b1");  // to=2, from=5, seq=3
  EXPECT_EQ(batch[2].payload, "b2");  // to=2, from=5, seq=7
  EXPECT_EQ(batch[3].payload, "c");   // to=2, from=12
  EXPECT_EQ(batch[4].payload, "d");   // to=3
}

TEST(ShardedMessageBus, StatsMergeAcrossShardSlots) {
  ShardedStringBus bus(2, 10);
  bus.send(PeerId(0), PeerId(9), "x", 10, 0);  // shard 0's slot
  bus.send(PeerId(9), PeerId(0), "y", 20, 0);  // shard 1's slot
  bus.shard_stats(0).messages_delivered = 1;
  bus.shard_stats(1).messages_dropped = 1;
  const auto merged = bus.stats();
  EXPECT_EQ(merged.messages_sent, 2u);
  EXPECT_EQ(merged.bytes_sent, 30u);
  EXPECT_EQ(merged.messages_delivered, 1u);
  EXPECT_EQ(merged.messages_dropped, 1u);
}

TEST(ShardedMessageBus, SingleShardDegenerateCase) {
  ShardedStringBus bus(1, 3);
  EXPECT_EQ(bus.shard_of(PeerId(0)), 0u);
  EXPECT_EQ(bus.shard_of(PeerId(2)), 0u);
  bus.send(PeerId(0), PeerId(1), "m", 1, 0);
  bus.begin_round();
  std::vector<ShardedStringBus::EnvelopeT> batch;
  bus.collect_into(0, batch, always_online);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].payload, "m");
}

TEST(ShardedMessageBus, CollectMatchesFilterThenSortReference) {
  // Property: for random message sets and random online masks, collecting
  // every shard yields exactly the reference — drop offline recipients,
  // then std::sort by (to, from, seq) — counts each drop once, and
  // releases a dropped payload before collect_into returns.
  using Payload = std::shared_ptr<const int>;
  using Bus = ShardedMessageBus<Payload>;
  struct Sent {
    PeerId to;
    PeerId from;
    std::uint32_t seq;
    Payload payload;
  };
  Rng rng(0xb05);
  for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
    for (int trial = 0; trial < 25; ++trial) {
      const auto population =
          static_cast<std::uint32_t>(1 + rng.uniform_below(300));
      const double online_share =
          std::vector<double>{0.0, 0.2, 0.5, 1.0}[rng.uniform_below(4)];
      std::vector<bool> online(population + 16);
      for (std::size_t i = 0; i < online.size(); ++i) {
        online[i] = rng.bernoulli(online_share);
      }
      const auto is_online = [&online](PeerId peer) {
        return static_cast<bool>(online[peer.value()]);
      };

      Bus bus(shards, population);
      std::vector<std::uint32_t> next_seq(population, 0);
      std::vector<Sent> sent;
      const auto messages = rng.uniform_below(1'500);
      for (std::uint64_t m = 0; m < messages; ++m) {
        const PeerId from(static_cast<std::uint32_t>(
            rng.uniform_below(population)));
        // A few recipients lie past the population; they clamp into the
        // last shard.
        const PeerId to(static_cast<std::uint32_t>(
            rng.uniform_below(population + 16)));
        const std::uint32_t seq = next_seq[from.value()]++;
        auto payload = std::make_shared<const int>(static_cast<int>(m));
        bus.send(from, to, payload, 1, seq);
        sent.push_back(Sent{to, from, seq, std::move(payload)});
      }
      bus.begin_round();

      std::vector<const Sent*> reference;
      std::uint64_t offline_addressed = 0;
      for (const Sent& message : sent) {
        if (is_online(message.to)) {
          reference.push_back(&message);
        } else {
          ++offline_addressed;
        }
      }
      std::sort(reference.begin(), reference.end(),
                [](const Sent* a, const Sent* b) {
                  return std::tie(a->to, a->from, a->seq) <
                         std::tie(b->to, b->from, b->seq);
                });

      // Shard blocks ascend by id, so the per-shard batches concatenated
      // in shard order must equal the globally sorted reference.
      std::vector<Bus::EnvelopeT> batch;
      std::size_t position = 0;
      std::uint64_t dropped = 0;
      for (std::size_t dst = 0; dst < shards; ++dst) {
        bus.collect_into(dst, batch, is_online);
        dropped += bus.shard_stats(dst).messages_to_offline;
        for (const Sent& message : sent) {
          if (bus.shard_of(message.to) != dst) continue;
          // A kept payload is shared with the batch; a dropped one is
          // already held by the test alone.
          EXPECT_EQ(message.payload.use_count(),
                    is_online(message.to) ? 2 : 1);
        }
        for (const auto& envelope : batch) {
          ASSERT_LT(position, reference.size());
          const Sent& expected = *reference[position++];
          EXPECT_EQ(bus.shard_of(envelope.to), dst);
          EXPECT_EQ(envelope.to, expected.to);
          EXPECT_EQ(envelope.from, expected.from);
          EXPECT_EQ(envelope.seq, expected.seq);
          EXPECT_EQ(envelope.payload, expected.payload);
        }
      }
      EXPECT_EQ(position, reference.size())
          << "shards=" << shards << " trial=" << trial;
      EXPECT_EQ(dropped, offline_addressed);
    }
  }
}

}  // namespace
}  // namespace updp2p::net
