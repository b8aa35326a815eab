#include "gossip/partial_list.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/chunked_peer_set.hpp"

namespace updp2p::gossip {
namespace {

using common::ChunkedPeerSet;
using common::PeerId;
using common::Rng;

std::vector<PeerId> ids(std::initializer_list<std::uint32_t> values) {
  std::vector<PeerId> out;
  for (const auto v : values) out.emplace_back(v);
  return out;
}

ChunkedPeerSet set_of(std::initializer_list<std::uint32_t> values) {
  ChunkedPeerSet out;
  for (const auto v : values) out.insert(PeerId(v));
  return out;
}

TEST(PartialList, NoneModeYieldsEmptyList) {
  PartialListConfig config;
  config.mode = PartialListMode::kNone;
  Rng rng(1);
  ChunkedPeerSet list = set_of({5});
  build_forward_list_into(config, set_of({1, 2}), ids({3}), PeerId(9), rng,
                          list);
  EXPECT_TRUE(list.empty());
}

TEST(PartialList, UnboundedMergesReceivedSelfAndTargets) {
  PartialListConfig config;
  config.mode = PartialListMode::kUnbounded;
  Rng rng(1);
  ChunkedPeerSet list;
  build_forward_list_into(config, set_of({1, 2}), ids({3, 4}), PeerId(9), rng,
                          list);
  EXPECT_EQ(list, set_of({1, 2, 3, 4, 9}));
}

TEST(PartialList, Deduplicates) {
  PartialListConfig config;
  config.mode = PartialListMode::kUnbounded;
  Rng rng(1);
  ChunkedPeerSet list;
  build_forward_list_into(config, set_of({1, 2, 9}), ids({2, 3}), PeerId(9),
                          rng, list);
  EXPECT_EQ(list, set_of({1, 2, 3, 9}));
}

TEST(PartialList, DropTailKeepsLowestIds) {
  PartialListConfig config;
  config.mode = PartialListMode::kDropTail;
  config.max_entries = 3;
  Rng rng(1);
  ChunkedPeerSet list;
  build_forward_list_into(config, set_of({1, 2, 3, 4}), ids({5}), PeerId(9),
                          rng, list);
  EXPECT_EQ(list, set_of({1, 2, 3}));
}

TEST(PartialList, DropHeadKeepsHighestIds) {
  PartialListConfig config;
  config.mode = PartialListMode::kDropHead;
  config.max_entries = 3;
  Rng rng(1);
  ChunkedPeerSet list;
  build_forward_list_into(config, set_of({1, 2, 3, 4}), ids({5}), PeerId(9),
                          rng, list);
  // merged = {1 2 3 4 5 9} -> keep the 3 highest ids.
  EXPECT_EQ(list, set_of({4, 5, 9}));
}

TEST(PartialList, DropRandomKeepsCapSizedSubset) {
  PartialListConfig config;
  config.mode = PartialListMode::kDropRandom;
  config.max_entries = 4;
  Rng rng(2);
  const auto received = set_of({1, 2, 3, 4, 5, 6, 7, 8});
  ChunkedPeerSet list;
  build_forward_list_into(config, received, ids({10}), PeerId(9), rng, list);
  EXPECT_EQ(list.size(), 4u);
  // Every survivor came from the merged input (a set cannot hold dupes).
  auto merged = received;
  merged.insert(PeerId(9));
  merged.insert(PeerId(10));
  list.for_each(
      [&](PeerId peer) { EXPECT_TRUE(merged.contains(peer)) << peer.value(); });
}

TEST(PartialList, CapNotExceededNotTruncatedBelow) {
  PartialListConfig config;
  config.mode = PartialListMode::kDropRandom;
  config.max_entries = 10;
  Rng rng(3);
  ChunkedPeerSet list;
  build_forward_list_into(config, set_of({1, 2}), ids({3}), PeerId(9), rng,
                          list);
  EXPECT_EQ(list.size(), 4u);  // under cap: everything kept
}

TEST(PartialList, BuildIntoReusesOutputSet) {
  PartialListConfig config;
  config.mode = PartialListMode::kUnbounded;
  Rng rng(1);
  ChunkedPeerSet out;
  build_forward_list_into(config, set_of({1, 2}), ids({3}), PeerId(9), rng,
                          out);
  EXPECT_EQ(out, set_of({1, 2, 3, 9}));
  // Re-use: the previous contents must not leak into the next build.
  build_forward_list_into(config, set_of({7}), ids({8}), PeerId(9), rng, out);
  EXPECT_EQ(out, set_of({7, 8, 9}));
}

TEST(PartialList, DropRandomIsUnbiasedish) {
  PartialListConfig config;
  config.mode = PartialListMode::kDropRandom;
  config.max_entries = 2;
  Rng rng(4);
  std::unordered_map<PeerId, int> kept;
  constexpr int kTrials = 6'000;
  const auto received = set_of({1, 2, 3});
  ChunkedPeerSet list;
  for (int i = 0; i < kTrials; ++i) {
    build_forward_list_into(config, received, {}, PeerId(9), rng, list);
    list.for_each([&](PeerId peer) { ++kept[peer]; });
  }
  // 4 candidates (1,2,3,self=9), 2 kept -> each expected kTrials/2.
  for (const auto& [peer, count] : kept) {
    EXPECT_NEAR(static_cast<double>(count) / kTrials, 0.5, 0.05)
        << "peer " << peer.value();
  }
}

TEST(PartialListMode, ToString) {
  EXPECT_STREQ(to_string(PartialListMode::kNone), "none");
  EXPECT_STREQ(to_string(PartialListMode::kDropRandom), "drop-random");
}

}  // namespace
}  // namespace updp2p::gossip
