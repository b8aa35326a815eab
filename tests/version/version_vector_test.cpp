#include "version/version_vector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace updp2p::version {
namespace {

using common::PeerId;

TEST(VersionVector, EmptyVectorsAreEqual) {
  VersionVector a, b;
  EXPECT_EQ(a.compare(b), Causality::kEqual);
  EXPECT_TRUE(a.covered_by(b));
}

TEST(VersionVector, IncrementCreatesDominance) {
  VersionVector a, b;
  a.increment(PeerId(1));
  EXPECT_EQ(a.compare(b), Causality::kDominates);
  EXPECT_EQ(b.compare(a), Causality::kDominatedBy);
  EXPECT_TRUE(b.covered_by(a));
  EXPECT_FALSE(a.covered_by(b));
}

TEST(VersionVector, ConcurrentWhenBothAdvanced) {
  VersionVector a, b;
  a.increment(PeerId(1));
  b.increment(PeerId(2));
  EXPECT_EQ(a.compare(b), Causality::kConcurrent);
  EXPECT_EQ(b.compare(a), Causality::kConcurrent);
  EXPECT_FALSE(a.covered_by(b));
}

TEST(VersionVector, IncrementReturnsNewCounter) {
  VersionVector vv;
  EXPECT_EQ(vv.increment(PeerId(5)), 1u);
  EXPECT_EQ(vv.increment(PeerId(5)), 2u);
  EXPECT_EQ(vv.get(PeerId(5)), 2u);
  EXPECT_EQ(vv.get(PeerId(6)), 0u);
}

TEST(VersionVector, ObserveTakesMaximum) {
  VersionVector vv;
  vv.observe(PeerId(1), 5);
  vv.observe(PeerId(1), 3);
  EXPECT_EQ(vv.get(PeerId(1)), 5u);
  vv.observe(PeerId(1), 9);
  EXPECT_EQ(vv.get(PeerId(1)), 9u);
}

TEST(VersionVector, ObserveZeroStaysImplicit) {
  VersionVector vv;
  vv.observe(PeerId(1), 0);
  EXPECT_TRUE(vv.empty());
  EXPECT_EQ(vv.entry_count(), 0u);
}

TEST(VersionVector, MergeIsComponentwiseMax) {
  VersionVector a, b;
  a.observe(PeerId(1), 3);
  a.observe(PeerId(2), 1);
  b.observe(PeerId(1), 1);
  b.observe(PeerId(3), 7);
  a.merge(b);
  EXPECT_EQ(a.get(PeerId(1)), 3u);
  EXPECT_EQ(a.get(PeerId(2)), 1u);
  EXPECT_EQ(a.get(PeerId(3)), 7u);
}

TEST(VersionVector, MergedVectorCoversBothInputs) {
  VersionVector a, b;
  a.observe(PeerId(1), 3);
  b.observe(PeerId(2), 2);
  VersionVector merged = a;
  merged.merge(b);
  EXPECT_TRUE(a.covered_by(merged));
  EXPECT_TRUE(b.covered_by(merged));
}

TEST(VersionVector, TotalEvents) {
  VersionVector vv;
  vv.observe(PeerId(1), 3);
  vv.observe(PeerId(9), 4);
  EXPECT_EQ(vv.total_events(), 7u);
}

TEST(VersionVector, ToStringContainsEntries) {
  VersionVector vv;
  vv.observe(PeerId(1), 3);
  EXPECT_EQ(vv.to_string(), "{1:3}");
}

TEST(VersionVector, ComparisonWithDisjointSupport) {
  VersionVector a, b;
  a.observe(PeerId(1), 1);
  a.observe(PeerId(2), 1);
  b.observe(PeerId(2), 1);
  EXPECT_EQ(a.compare(b), Causality::kDominates);
}

TEST(VersionVector, CausalityToString) {
  EXPECT_STREQ(to_string(Causality::kEqual), "equal");
  EXPECT_STREQ(to_string(Causality::kConcurrent), "concurrent");
}

// --- property tests over random operation sequences -------------------------

class VersionVectorProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  VersionVector random_vector(common::Rng& rng) {
    VersionVector vv;
    const auto entries = rng.uniform_below(6);
    for (std::uint64_t i = 0; i < entries; ++i) {
      vv.observe(PeerId(static_cast<std::uint32_t>(rng.uniform_below(4))),
                 rng.uniform_below(5) + 1);
    }
    return vv;
  }
};

TEST_P(VersionVectorProperty, CompareIsAntisymmetric) {
  common::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const auto a = random_vector(rng);
    const auto b = random_vector(rng);
    const auto ab = a.compare(b);
    const auto ba = b.compare(a);
    switch (ab) {
      case Causality::kEqual: EXPECT_EQ(ba, Causality::kEqual); break;
      case Causality::kDominates: EXPECT_EQ(ba, Causality::kDominatedBy); break;
      case Causality::kDominatedBy: EXPECT_EQ(ba, Causality::kDominates); break;
      case Causality::kConcurrent: EXPECT_EQ(ba, Causality::kConcurrent); break;
    }
  }
}

TEST_P(VersionVectorProperty, MergeIsIdempotentCommutativeAssociative) {
  common::Rng rng(GetParam() ^ 0xabcdef);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_vector(rng);
    const auto b = random_vector(rng);
    const auto c = random_vector(rng);

    VersionVector aa = a;
    aa.merge(a);
    EXPECT_EQ(aa, a);  // idempotent

    VersionVector ab = a, ba = b;
    ab.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab, ba);  // commutative

    VersionVector ab_c = ab, a_bc = a, bc = b;
    ab_c.merge(c);
    bc.merge(c);
    a_bc.merge(bc);
    EXPECT_EQ(ab_c, a_bc);  // associative
  }
}

TEST_P(VersionVectorProperty, MergeIsLeastUpperBound) {
  common::Rng rng(GetParam() ^ 0x5555);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_vector(rng);
    const auto b = random_vector(rng);
    VersionVector merged = a;
    merged.merge(b);
    EXPECT_TRUE(a.covered_by(merged));
    EXPECT_TRUE(b.covered_by(merged));
    // Least: merged has no counter above max(a, b).
    for (const auto& [peer, counter] : merged.entries()) {
      EXPECT_EQ(counter, std::max(a.get(peer), b.get(peer)));
    }
  }
}

// --- the flat vector against a std::map reference model ----------------------

/// The obvious sparse model: an ordered map, absent == zero, no zero values.
using Model = std::map<PeerId, std::uint64_t>;

void model_observe(Model& model, PeerId peer, std::uint64_t counter) {
  if (counter == 0) return;
  auto& slot = model[peer];
  slot = std::max(slot, counter);
}

std::uint64_t model_get(const Model& model, PeerId peer) {
  const auto it = model.find(peer);
  return it == model.end() ? 0 : it->second;
}

Causality model_compare(const Model& a, const Model& b) {
  bool greater = false;
  bool less = false;
  for (const auto& [peer, counter] : a) {
    const std::uint64_t theirs = model_get(b, peer);
    greater = greater || counter > theirs;
    less = less || counter < theirs;
  }
  for (const auto& [peer, counter] : b) {
    less = less || !a.contains(peer);
  }
  if (greater && less) return Causality::kConcurrent;
  if (greater) return Causality::kDominates;
  if (less) return Causality::kDominatedBy;
  return Causality::kEqual;
}

void expect_matches(const VersionVector& vv, const Model& model) {
  ASSERT_EQ(vv.entry_count(), model.size());
  auto it = model.begin();
  for (const auto& [peer, counter] : vv.entries()) {
    EXPECT_EQ(peer, it->first);
    EXPECT_EQ(counter, it->second);
    ++it;
  }
}

class VersionVectorModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VersionVectorModel, AgreesWithMapReference) {
  // Peers live in [0, 700): the pool's own writes fill the middle band, and
  // merges bring in peers below, inside and above it, so merges insert at
  // the front, the middle and the back of vectors up to ~600 entries.
  constexpr std::uint32_t kFrontEnd = 50;
  constexpr std::uint32_t kBackStart = 650;
  constexpr std::uint32_t kPeers = 700;
  common::Rng rng(GetParam());
  std::array<VersionVector, 4> vvs;
  std::array<Model, 4> models;
  const auto pick = [&rng](std::uint32_t lo, std::uint32_t hi) {
    return PeerId(lo + static_cast<std::uint32_t>(rng.uniform_below(hi - lo)));
  };

  std::size_t largest = 0;
  for (int step = 0; step < 600; ++step) {
    const auto at = static_cast<std::size_t>(rng.uniform_below(vvs.size()));
    VersionVector& vv = vvs[at];
    Model& model = models[at];
    switch (rng.uniform_below(6)) {
      case 0: {
        const PeerId peer = pick(kFrontEnd, kBackStart);
        const std::uint64_t counter = vv.increment(peer);
        EXPECT_EQ(counter, ++model[peer]);
        break;
      }
      case 1: {  // counter 0 included: it must stay implicit
        const PeerId peer = pick(0, kPeers);
        const std::uint64_t counter = rng.uniform_below(8);
        vv.observe(peer, counter);
        model_observe(model, peer, counter);
        break;
      }
      case 2: {  // grow in bulk towards a few hundred entries
        for (int i = 0; i < 60; ++i) {
          const PeerId peer = pick(kFrontEnd, kBackStart);
          const std::uint64_t counter = rng.uniform_below(9) + 1;
          vv.observe(peer, counter);
          model_observe(model, peer, counter);
        }
        break;
      }
      case 3: {  // merge another pool member (possibly itself)
        const auto other = static_cast<std::size_t>(rng.uniform_below(vvs.size()));
        const Model theirs = models[other];
        vv.merge(vvs[other]);
        for (const auto& [peer, counter] : theirs) {
          model_observe(model, peer, counter);
        }
        break;
      }
      case 4: {  // merge a fresh vector from the front, middle or back band
        std::uint32_t lo = 0;
        std::uint32_t hi = kFrontEnd;
        const auto band = rng.uniform_below(3);
        if (band == 1) {
          lo = kFrontEnd;
          hi = kBackStart;
        } else if (band == 2) {
          lo = kBackStart;
          hi = kPeers;
        }
        VersionVector incoming;
        Model incoming_model;
        const auto entries = rng.uniform_below(40) + 1;
        for (std::uint64_t i = 0; i < entries; ++i) {
          const PeerId peer = pick(lo, hi);
          const std::uint64_t counter = rng.uniform_below(12) + 1;
          incoming.observe(peer, counter);
          model_observe(incoming_model, peer, counter);
        }
        vv.merge(incoming);
        for (const auto& [peer, counter] : incoming_model) {
          model_observe(model, peer, counter);
        }
        break;
      }
      default: {  // from_entries over a shuffled, repeating, zero-bearing copy
        std::vector<VersionVector::Entry> entries(vv.entries().begin(),
                                                  vv.entries().end());
        const std::size_t extra = entries.size() / 2 + 1;
        for (std::size_t i = 0; i < extra; ++i) {
          // Counters no larger than the held ones (0 for absent peers), so
          // folding by max and dropping zeros gives back `vv` itself.
          const PeerId peer = pick(0, kPeers);
          entries.emplace_back(
              peer, std::min(model_get(model, peer), rng.uniform_below(3)));
        }
        rng.shuffle(std::span<VersionVector::Entry>(entries));
        const VersionVector rebuilt =
            VersionVector::from_entries(std::move(entries));
        EXPECT_EQ(rebuilt, vv);
        expect_matches(rebuilt, model);
        break;
      }
    }
    expect_matches(vv, model);
    largest = std::max(largest, vv.entry_count());

    // Queries against every pool member, each checked against the model.
    const PeerId probe = pick(0, kPeers);
    EXPECT_EQ(vv.get(probe), model_get(model, probe));
    for (std::size_t other = 0; other < vvs.size(); ++other) {
      EXPECT_EQ(vv.compare(vvs[other]), model_compare(model, models[other]));
      EXPECT_EQ(vv == vvs[other], model == models[other]);
    }
    if (HasFailure()) FAIL() << "diverged at step " << step;
  }
  EXPECT_GE(largest, 400u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionVectorModel,
                         ::testing::Values(1, 2, 3, 7, 1234));

INSTANTIATE_TEST_SUITE_P(Seeds, VersionVectorProperty,
                         ::testing::Values(1, 2, 3, 7, 1234));

}  // namespace
}  // namespace updp2p::version
