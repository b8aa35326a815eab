#include "sim/round_simulator.hpp"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gossip/codec.hpp"
#include "version/version_id.hpp"

namespace updp2p::sim {
namespace {

using common::PeerId;

RoundSimConfig base_config(std::size_t population = 200) {
  RoundSimConfig config;
  config.population = population;
  config.gossip.estimated_total_replicas = population;
  config.gossip.fanout_fraction = 0.05;
  config.gossip.forward_probability = analysis::pf_constant(1.0);
  config.seed = 12345;
  return config;
}

TEST(RoundSimulator, FullyOnlineFloodReachesEveryone) {
  auto config = base_config();
  config.reconnect_pull = false;
  config.round_timers = false;
  auto simulator = make_push_phase_simulator(config, 1.0, 1.0);
  const auto metrics = simulator->propagate_update();
  EXPECT_DOUBLE_EQ(metrics.final_aware_fraction(), 1.0);
  EXPECT_EQ(metrics.initial_online, 200u);
  EXPECT_GT(metrics.total_push_messages(), 0u);
}

TEST(RoundSimulator, AwarenessIsMonotoneWithoutChurn) {
  auto simulator = make_push_phase_simulator(base_config(), 0.5, 1.0);
  const auto metrics = simulator->propagate_update();
  std::size_t previous = 0;
  for (const auto& round : metrics.rounds) {
    EXPECT_GE(round.aware_online, previous) << "round " << round.round;
    previous = round.aware_online;
  }
}

TEST(RoundSimulator, DeterministicForSameSeed) {
  auto a = make_push_phase_simulator(base_config(), 0.3, 0.95);
  auto b = make_push_phase_simulator(base_config(), 0.3, 0.95);
  const auto ma = a->propagate_update();
  const auto mb = b->propagate_update();
  EXPECT_EQ(ma.total_push_messages(), mb.total_push_messages());
  EXPECT_EQ(ma.final_aware_fraction(), mb.final_aware_fraction());
  EXPECT_EQ(ma.rounds.size(), mb.rounds.size());
}

TEST(RoundSimulator, SecondUpdateLatencyCountsFromItsOwnFirstRound) {
  auto config = base_config();
  config.reconnect_pull = false;
  config.round_timers = false;
  auto simulator = make_push_phase_simulator(config, 1.0, 1.0);
  const auto first = simulator->propagate_update(std::nullopt, "item", "v1");
  const auto second = simulator->propagate_update(std::nullopt, "item", "v2");
  ASSERT_FALSE(second.rounds.empty());
  // The simulator kept counting rounds across the two updates...
  EXPECT_EQ(second.rounds.front().round, first.rounds.back().round);
  EXPECT_GT(second.rounds.front().round, 0u);
  // ...but latency is measured from the update's own publish round:
  // rounds[i] is the i-th round after the publish, so the latency indexes
  // the round in which the last peer became aware.
  const common::Round latency = second.rounds_to_quiescence();
  ASSERT_GT(latency, 0u);
  ASSERT_LT(latency, second.rounds.size());
  EXPECT_EQ(second.rounds[latency].round,
            second.rounds.front().round + latency);
  EXPECT_LT(second.rounds[latency - 1].aware_online,
            second.rounds[latency].aware_online);
  EXPECT_EQ(second.rounds[latency].aware_online,
            second.rounds.back().aware_online);
}

TEST(RoundSimulator, DifferentSeedsDiffer) {
  auto config_a = base_config();
  config_a.seed = 1;
  auto config_b = base_config();
  config_b.seed = 2;
  auto a = make_push_phase_simulator(config_a, 0.3, 0.95);
  auto b = make_push_phase_simulator(config_b, 0.3, 0.95);
  EXPECT_NE(a->propagate_update().total_push_messages(),
            b->propagate_update().total_push_messages());
}

TEST(RoundSimulator, InitiatorMustBeOnline) {
  auto config = base_config(50);
  auto churn = std::make_unique<churn::TraceChurn>(
      50, std::vector<std::vector<PeerId>>{{PeerId(0), PeerId(1)}});
  RoundSimulator simulator(config, std::move(churn));
  EXPECT_DEATH((void)simulator.propagate_update(PeerId(5)), "online");
}

TEST(RoundSimulator, NoListMeansMoreDuplicates) {
  auto with_list = base_config();
  with_list.gossip.partial_list.mode = gossip::PartialListMode::kUnbounded;
  with_list.reconnect_pull = false;
  with_list.round_timers = false;
  auto without_list = with_list;
  without_list.gossip.partial_list.mode = gossip::PartialListMode::kNone;

  auto a = make_push_phase_simulator(with_list, 0.5, 1.0);
  auto b = make_push_phase_simulator(without_list, 0.5, 1.0);
  const auto ma = a->propagate_update();
  const auto mb = b->propagate_update();
  EXPECT_LT(ma.total_push_messages(), mb.total_push_messages());
  EXPECT_NEAR(ma.final_aware_fraction(), mb.final_aware_fraction(), 0.05);
}

TEST(RoundSimulator, OfflinePeersCatchUpViaPullOnReconnect) {
  auto config = base_config(200);
  config.gossip.fanout_fraction = 0.08;  // supercritical at 30% online
  config.gossip.pull.contacts_per_attempt = 3;
  config.gossip.pull.no_update_timeout = 1'000;  // only reconnect pulls
  config.reconnect_pull = true;
  config.round_timers = true;
  config.max_rounds = 80;
  config.quiescence_rounds = 100;  // don't stop early; run the full window
  // 30% online initially; offline peers come online at 2% per round.
  auto churn =
      std::make_unique<churn::BernoulliChurn>(200, 0.30, 0.995, 0.02);
  RoundSimulator simulator(config, std::move(churn));
  const auto metrics = simulator.propagate_update();
  EXPECT_GT(metrics.total_pull_messages(), 0u);
  // Nearly all *currently online* peers know the update at the end,
  // including those that were offline during the push.
  EXPECT_GT(metrics.final_aware_fraction(), 0.9);
}

TEST(RoundSimulator, RunRoundsAdvancesTime) {
  auto simulator = make_push_phase_simulator(base_config(), 0.5, 1.0);
  const auto before = simulator->current_round();
  simulator->run_rounds(5);
  EXPECT_EQ(simulator->current_round(), before + 5);
}

TEST(RoundSimulator, SmallInitialViewStillSpreads) {
  auto config = base_config(300);
  config.initial_view_size = 30;  // partial membership knowledge (§2)
  config.reconnect_pull = false;
  config.round_timers = false;
  auto simulator = make_push_phase_simulator(config, 1.0, 1.0);
  const auto metrics = simulator->propagate_update();
  EXPECT_GT(metrics.final_aware_fraction(), 0.95);
}

TEST(RoundSimulator, MessageLossSlowsButRarelyStopsSpread) {
  auto config = base_config();
  config.message_loss = 0.3;
  config.reconnect_pull = false;
  config.round_timers = false;
  auto simulator = make_push_phase_simulator(config, 1.0, 1.0);
  const auto metrics = simulator->propagate_update();
  EXPECT_GT(metrics.final_aware_fraction(), 0.9);
  EXPECT_GT(simulator->bus_stats().messages_dropped, 0u);
}

TEST(RoundSimulator, BusStatsConsistent) {
  auto config = base_config();
  config.reconnect_pull = false;
  config.round_timers = false;
  auto simulator = make_push_phase_simulator(config, 0.4, 0.95);
  (void)simulator->propagate_update();
  const auto& stats = simulator->bus_stats();
  EXPECT_EQ(stats.messages_sent, stats.messages_delivered +
                                     stats.messages_to_offline +
                                     stats.messages_dropped +
                                     simulator->population() * 0);
  EXPECT_GT(stats.messages_to_offline, 0u);  // 60% offline targets exist
  EXPECT_GT(stats.bytes_sent, 0u);
}

TEST(RoundSimulator, TrackedAwarenessMatchesNodeState) {
  auto config = base_config(100);
  config.reconnect_pull = false;
  config.round_timers = false;
  auto simulator = make_push_phase_simulator(config, 1.0, 1.0);
  (void)simulator->propagate_update(PeerId(3), "k", "v");
  const auto value = simulator->node(PeerId(3)).read("k");
  ASSERT_TRUE(value.has_value());
  // Probabilistic guarantee: nearly everyone, and the two accessors agree.
  EXPECT_GT(simulator->aware_fraction(value->id), 0.9);
  EXPECT_EQ(simulator->aware_online(value->id),
            static_cast<std::size_t>(
                simulator->aware_fraction(value->id) * 100.0 + 0.5));
  // Cross-check against node state directly.
  std::size_t aware = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    if (simulator->node(PeerId(i)).knows_version(value->id)) ++aware;
  }
  EXPECT_EQ(simulator->aware_online(value->id), aware);
}

TEST(RoundSimulator, ConcurrentKeysPropagateIndependently) {
  auto config = base_config(200);
  config.reconnect_pull = false;
  config.round_timers = false;
  auto simulator = make_push_phase_simulator(config, 1.0, 1.0);
  const auto first = simulator->propagate_update(PeerId(0), "alpha", "a1");
  const auto second = simulator->propagate_update(PeerId(1), "beta", "b1");
  EXPECT_GT(first.final_aware_fraction(), 0.9);
  EXPECT_GT(second.final_aware_fraction(), 0.9);
  // Both keys readable at an arbitrary peer.
  const auto& node = simulator->node(PeerId(100));
  EXPECT_TRUE(node.read("alpha").has_value());
  EXPECT_TRUE(node.read("beta").has_value());
}

TEST(RoundSimulator, NodeBytesMatchBusBytes) {
  auto config = base_config(150);
  config.reconnect_pull = false;
  config.round_timers = false;
  auto simulator = make_push_phase_simulator(config, 0.5, 1.0);
  (void)simulator->propagate_update();
  std::uint64_t node_bytes = 0;
  for (std::uint32_t i = 0; i < 150; ++i) {
    node_bytes += simulator->node(PeerId(i)).stats().bytes_sent;
  }
  EXPECT_EQ(node_bytes, simulator->bus_stats().bytes_sent);
}

TEST(RoundSimulator, WireSerializationPreservesBehaviour) {
  // Same seed, with and without full codec round-trips: identical protocol
  // outcome, byte counters now reflect actual encoded frames.
  auto plain_config = base_config();
  plain_config.reconnect_pull = false;
  plain_config.round_timers = false;
  auto wire_config = plain_config;
  wire_config.serialize_messages = true;

  auto plain = make_push_phase_simulator(plain_config, 0.4, 0.95);
  auto wire = make_push_phase_simulator(wire_config, 0.4, 0.95);
  const auto plain_metrics = plain->propagate_update();
  const auto wire_metrics = wire->propagate_update();
  EXPECT_EQ(plain_metrics.total_push_messages(),
            wire_metrics.total_push_messages());
  EXPECT_EQ(plain_metrics.final_aware_fraction(),
            wire_metrics.final_aware_fraction());
  EXPECT_GT(wire_metrics.total_bytes(), 0u);
}

// --- RoundOutbox: one shard's sends of one round, addressed by slot -------

gossip::SharedValue outbox_value() {
  version::VersionedValue value;
  value.key = "calendar/fri-10am";
  value.payload = "standup @ 10:30";
  version::VersionIdFactory factory(PeerId(3), common::Rng(1));
  value.id = factory.mint(12.5);
  value.history.observe(PeerId(3), 7);
  value.written_at = 12.5;
  return gossip::SharedValue(std::move(value));
}

std::vector<std::byte> bytes_of(std::span<const std::byte> frame) {
  return std::vector<std::byte>(frame.begin(), frame.end());
}

TEST(RoundSimulator, OutboxStoresAFanOutOnce) {
  // A fan-out to N targets re-sends the SAME shared value/list/round: one
  // slot, encoded (or stored) once, handed to every target.
  gossip::PushMessage push;
  push.value = outbox_value();
  push.flooding_list = {PeerId(1), PeerId(2)};
  push.round = 9;
  const gossip::GossipPayload fanout{push};  // shares value + list

  RoundOutbox wire(/*wire=*/true);
  EXPECT_EQ(wire.size(), 0u);
  const std::uint32_t slot = wire.put(gossip::GossipPayload{fanout});
  for (int target = 0; target < 5; ++target) {
    EXPECT_EQ(wire.put(gossip::GossipPayload{fanout}), slot);
  }
  EXPECT_EQ(wire.size(), 1u);
  EXPECT_EQ(bytes_of(wire.frame(slot)), gossip::encode(fanout));

  RoundOutbox memory(/*wire=*/false);
  const std::uint32_t stored = memory.put(gossip::GossipPayload{fanout});
  for (int target = 0; target < 5; ++target) {
    EXPECT_EQ(memory.put(gossip::GossipPayload{fanout}), stored);
  }
  EXPECT_EQ(memory.size(), 1u);
  const auto& kept = std::get<gossip::PushMessage>(memory.payload(stored));
  EXPECT_EQ(kept.value.identity(), push.value.identity());
  EXPECT_EQ(kept.flooding_list.identity(), push.flooding_list.identity());
}

TEST(RoundSimulator, OutboxFrameIsOneBufferForEveryTarget) {
  // Every target of a fan-out reads the same bytes in place: the slot each
  // put() hands back names one buffer, not a copy per target.
  gossip::PushMessage push;
  push.value = outbox_value();
  push.flooding_list = {PeerId(4)};
  push.round = 3;
  const gossip::GossipPayload fanout{push};

  RoundOutbox wire(/*wire=*/true);
  EXPECT_EQ(wire.size(), 0u);
  const std::span<const std::byte> first =
      wire.frame(wire.put(gossip::GossipPayload{fanout}));
  ASSERT_FALSE(first.empty());
  for (int target = 0; target < 3; ++target) {
    const std::span<const std::byte> again =
        wire.frame(wire.put(gossip::GossipPayload{fanout}));
    EXPECT_EQ(again.data(), first.data());
    EXPECT_EQ(again.size(), first.size());
  }

  RoundOutbox memory(/*wire=*/false);
  EXPECT_EQ(memory.size(), 0u);
  const gossip::GossipPayload* stored =
      &memory.payload(memory.put(gossip::GossipPayload{fanout}));
  for (int target = 0; target < 3; ++target) {
    EXPECT_EQ(&memory.payload(memory.put(gossip::GossipPayload{fanout})),
              stored);
  }
}

TEST(RoundSimulator, OutboxGivesANewSlotOnAnyKeyChange) {
  for (const bool wire_mode : {true, false}) {
    RoundOutbox box(wire_mode);
    gossip::PushMessage push;
    push.value = outbox_value();
    push.flooding_list = {PeerId(1)};
    push.round = 1;
    EXPECT_EQ(box.put(gossip::GossipPayload{push}), 0u);

    // Same contents, different shared allocation: identity keying must
    // miss (contents-equal but distinct objects may diverge under COW).
    gossip::PushMessage rebuilt;
    rebuilt.value = outbox_value();
    rebuilt.flooding_list = {PeerId(1)};
    rebuilt.round = 1;
    EXPECT_EQ(box.put(gossip::GossipPayload{rebuilt}), 1u);

    // Different round under the same value/list: a new slot, holding the
    // NEW round's bytes.
    gossip::PushMessage next_round = rebuilt;
    next_round.round = 2;
    const std::uint32_t slot = box.put(gossip::GossipPayload{next_round});
    EXPECT_EQ(slot, 2u);
    if (wire_mode) {
      EXPECT_EQ(bytes_of(box.frame(slot)),
                gossip::encode(gossip::GossipPayload{next_round}));
    } else {
      EXPECT_EQ(std::get<gossip::PushMessage>(box.payload(slot)).round, 2u);
    }

    // Non-push payloads never share a slot, and do not break the fan-out
    // key of the push before them.
    EXPECT_EQ(box.put(gossip::GossipPayload{gossip::AckMessage{}}), 3u);
    EXPECT_EQ(box.put(gossip::GossipPayload{gossip::AckMessage{}}), 4u);
    EXPECT_EQ(box.put(gossip::GossipPayload{next_round}), slot);
    EXPECT_EQ(box.size(), 5u);

    // clear() forgets the slots and the key: the same push is stored anew.
    box.clear();
    EXPECT_EQ(box.size(), 0u);
    EXPECT_EQ(box.put(gossip::GossipPayload{next_round}), 0u);
    EXPECT_EQ(box.size(), 1u);
  }
}

TEST(RoundSimulator, ConsecutiveUpdatesAgreeAcrossShardsAndModes) {
  // Twelve updates on one simulator: each round reuses an outbox cleared
  // two rounds earlier, and each update's fan-outs key on fresh value and
  // list allocations that the allocator may place at freed addresses. Any
  // stale slot or aliased key would make some update's metrics depend on
  // the shard count or the mode.
  constexpr int kUpdates = 12;
  const auto run = [](unsigned shards, bool wire) {
    RoundSimConfig config = base_config(300);
    config.gossip.fanout_fraction = 0.03;
    config.gossip.forward_probability = analysis::pf_constant(0.9);
    config.gossip.acks.enabled = true;
    config.gossip.pull.contacts_per_attempt = 2;
    config.gossip.pull.no_update_timeout = 8;
    config.message_loss = 0.05;
    config.max_rounds = 40;
    config.serialize_messages = wire;
    config.shard_threads = shards;
    RoundSimulator simulator(
        config, std::make_unique<churn::BernoulliChurn>(300, 0.5, 0.95, 0.1));
    std::vector<std::vector<std::uint64_t>> updates;
    for (int k = 0; k < kUpdates; ++k) {
      const RunMetrics metrics = simulator.propagate_update(
          std::nullopt, "item", "v" + std::to_string(k));
      std::vector<std::uint64_t> words;
      for (const RoundMetrics& r : metrics.rounds) {
        words.insert(words.end(),
                     {r.round, r.online, r.aware_online, r.push_messages,
                      r.pull_messages, r.ack_messages, r.query_messages,
                      r.duplicates, r.bytes});
      }
      const net::BusStats bus = simulator.bus_stats();
      words.insert(words.end(),
                   {bus.messages_sent, bus.messages_delivered,
                    bus.messages_to_offline, bus.messages_dropped,
                    bus.bytes_sent});
      updates.push_back(std::move(words));
    }
    return updates;
  };

  const auto reference = run(1, false);
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(kUpdates));
  for (const unsigned shards : {1u, 2u, 8u}) {
    for (const bool wire : {false, true}) {
      if (shards == 1 && !wire) continue;  // the reference itself
      const auto updates = run(shards, wire);
      for (int k = 0; k < kUpdates; ++k) {
        EXPECT_EQ(updates[k], reference[k])
            << "update " << k << " shards=" << shards << " wire=" << wire;
      }
    }
  }
}

TEST(RoundSimulator, RejectsMismatchedChurnPopulation) {
  auto config = base_config(100);
  EXPECT_DEATH(RoundSimulator(config,
                              std::make_unique<churn::StaticChurn>(50, 0.5)),
               "population");
}

}  // namespace
}  // namespace updp2p::sim
