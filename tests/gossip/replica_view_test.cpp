#include "gossip/replica_view.hpp"

#include <gtest/gtest.h>

#include <array>
#include <unordered_set>
#include <vector>

#include "common/dense_peer_set.hpp"

namespace updp2p::gossip {
namespace {

using common::DensePeerSet;
using common::PeerId;
using common::Rng;

TEST(ReplicaView, AddAndContains) {
  ReplicaView view{PeerId(0)};
  EXPECT_TRUE(view.empty());
  EXPECT_TRUE(view.add(PeerId(1)));
  EXPECT_FALSE(view.add(PeerId(1)));  // duplicate
  EXPECT_TRUE(view.contains(PeerId(1)));
  EXPECT_EQ(view.size(), 1u);
}

TEST(ReplicaView, NeverStoresSelf) {
  ReplicaView view{PeerId(0)};
  EXPECT_FALSE(view.add(PeerId(0)));
  EXPECT_FALSE(view.contains(PeerId(0)));
}

TEST(ReplicaView, MergeCountsNewMembers) {
  ReplicaView view{PeerId(0)};
  view.add(PeerId(1));
  const std::array<PeerId, 4> incoming{PeerId(0), PeerId(1), PeerId(2),
                                       PeerId(3)};
  EXPECT_EQ(view.merge(incoming), 2u);  // 2 and 3 are new; 0 is self
  EXPECT_EQ(view.size(), 3u);
}

TEST(ReplicaView, SampleReturnsDistinctMembers) {
  ReplicaView view{PeerId(0)};
  for (std::uint32_t i = 1; i <= 50; ++i) view.add(PeerId(i));
  Rng rng(1);
  std::vector<PeerId> sample;
  view.sample_into(rng, 10, sample);
  EXPECT_EQ(sample.size(), 10u);
  std::unordered_set<PeerId> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const PeerId peer : sample) EXPECT_TRUE(view.contains(peer));
}

TEST(ReplicaView, SampleHonoursExclusions) {
  ReplicaView view{PeerId(0)};
  for (std::uint32_t i = 1; i <= 10; ++i) view.add(PeerId(i));
  Rng rng(2);
  DensePeerSet exclude;
  for (std::uint32_t i = 1; i <= 3; ++i) exclude.insert(PeerId(i));
  std::vector<PeerId> sample;
  for (int trial = 0; trial < 50; ++trial) {
    view.sample_into(rng, 7, sample, &exclude);
    EXPECT_EQ(sample.size(), 7u);
    for (const PeerId peer : sample) EXPECT_FALSE(exclude.contains(peer));
  }
}

TEST(ReplicaView, SampleReturnsFewerWhenViewSmall) {
  ReplicaView view{PeerId(0)};
  view.add(PeerId(1));
  view.add(PeerId(2));
  Rng rng(3);
  std::vector<PeerId> sample;
  view.sample_into(rng, 10, sample);
  EXPECT_EQ(sample.size(), 2u);
}

TEST(ReplicaView, SampleEmptyCases) {
  ReplicaView view{PeerId(0)};
  Rng rng(4);
  // Stale contents are replaced, even when nothing is sampled.
  std::vector<PeerId> sample{PeerId(7)};
  view.sample_into(rng, 5, sample);
  EXPECT_TRUE(sample.empty());
  view.add(PeerId(1));
  sample.assign(1, PeerId(7));
  view.sample_into(rng, 0, sample);
  EXPECT_TRUE(sample.empty());
  DensePeerSet exclude;
  exclude.insert(PeerId(1));
  view.sample_into(rng, 5, sample, &exclude);
  EXPECT_TRUE(sample.empty());
}

TEST(ReplicaView, PresumedOfflineSkippedUntilExpiry) {
  ReplicaView view{PeerId(0)};
  view.add(PeerId(1));
  view.add(PeerId(2));
  view.mark_presumed_offline(PeerId(1), /*until_round=*/10);
  // Queries advance monotonically, as rounds do in a run: expired deadlines
  // are purged lazily as `now` moves forward.
  EXPECT_TRUE(view.is_presumed_offline(PeerId(1), 5));
  EXPECT_EQ(view.presumed_offline_count(5), 1u);

  Rng rng(5);
  std::vector<PeerId> sample;
  for (int trial = 0; trial < 30; ++trial) {
    view.sample_into(rng, 2, sample, nullptr, /*now=*/5);
    ASSERT_EQ(sample.size(), 1u);
    EXPECT_EQ(sample[0], PeerId(2));
  }

  EXPECT_FALSE(view.is_presumed_offline(PeerId(1), 10));
  EXPECT_EQ(view.presumed_offline_count(10), 0u);
  // After expiry peer 1 is eligible again.
  bool seen1 = false;
  for (int trial = 0; trial < 30 && !seen1; ++trial) {
    view.sample_into(rng, 2, sample, nullptr, /*now=*/10);
    for (const PeerId peer : sample) seen1 |= peer == PeerId(1);
  }
  EXPECT_TRUE(seen1);
}

TEST(ReplicaView, OfflineQueriesAreExactForRecordedMarks) {
  ReplicaView view{PeerId(0)};
  view.add(PeerId(1));
  view.mark_presumed_offline(PeerId(1), /*until_round=*/10);
  // The predicate is a pure read: a mark still recorded answers any `now`
  // exactly, including queries that rewind past its expiry.
  EXPECT_FALSE(view.is_presumed_offline(PeerId(1), 14));
  EXPECT_TRUE(view.is_presumed_offline(PeerId(1), 5));
  // Counting purges expired marks; a purged mark's expiry is forgotten, so
  // a rewound query then reads the peer as online (drivers are monotonic).
  EXPECT_EQ(view.presumed_offline_count(14), 0u);
  EXPECT_FALSE(view.is_presumed_offline(PeerId(1), 5));
}

TEST(ReplicaView, ClearPresumedOffline) {
  ReplicaView view{PeerId(0)};
  view.add(PeerId(1));
  view.mark_presumed_offline(PeerId(1), 100);
  view.clear_presumed_offline(PeerId(1));
  EXPECT_FALSE(view.is_presumed_offline(PeerId(1), 5));
}

TEST(ReplicaView, MarkPresumedOfflineKeepsLatestDeadline) {
  ReplicaView view{PeerId(0)};
  view.add(PeerId(1));
  view.mark_presumed_offline(PeerId(1), 10);
  view.mark_presumed_offline(PeerId(1), 5);  // earlier mark must not shorten
  EXPECT_TRUE(view.is_presumed_offline(PeerId(1), 7));
}

TEST(ReplicaView, PreferredPeersAreOversampled) {
  ReplicaView view{PeerId(0)};
  for (std::uint32_t i = 1; i <= 20; ++i) view.add(PeerId(i));
  view.mark_preferred(PeerId(1));
  EXPECT_TRUE(view.is_preferred(PeerId(1)));

  Rng rng(6);
  int preferred_hits = 0;
  int other_hits = 0;
  constexpr int kTrials = 4'000;
  std::vector<PeerId> sample;
  for (int trial = 0; trial < kTrials; ++trial) {
    view.sample_into(rng, 1, sample);
    for (const PeerId peer : sample) {
      if (peer == PeerId(1)) {
        ++preferred_hits;
      } else if (peer == PeerId(2)) {
        ++other_hits;
      }
    }
  }
  // Peer 1 appears twice in the pool: roughly double the frequency.
  EXPECT_GT(preferred_hits, other_hits * 3 / 2);
}

TEST(ReplicaView, PreferredDoesNotDuplicateInOneSample) {
  ReplicaView view{PeerId(0)};
  view.add(PeerId(1));
  view.add(PeerId(2));
  view.mark_preferred(PeerId(1));
  Rng rng(7);
  std::vector<PeerId> sample;
  for (int trial = 0; trial < 50; ++trial) {
    view.sample_into(rng, 2, sample);
    std::unordered_set<PeerId> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), sample.size());
  }
}

}  // namespace
}  // namespace updp2p::gossip
