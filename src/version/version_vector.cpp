#include "version/version_vector.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace updp2p::version {

const char* to_string(Causality c) noexcept {
  switch (c) {
    case Causality::kEqual: return "equal";
    case Causality::kDominates: return "dominates";
    case Causality::kDominatedBy: return "dominated-by";
    case Causality::kConcurrent: return "concurrent";
  }
  return "?";
}

namespace {

bool peer_less(const VersionVector::Entry& entry, common::PeerId peer) noexcept {
  return entry.first < peer;
}

}  // namespace

VersionVector VersionVector::from_entries(std::vector<Entry> entries) {
  const auto by_peer = [](const Entry& a, const Entry& b) {
    return a.first < b.first;
  };
  // Ascending input (the wire order) skips the sort, so decoding stays
  // linear; any other order costs O(n log n), never a quadratic insert.
  if (!std::is_sorted(entries.begin(), entries.end(), by_peer)) {
    std::sort(entries.begin(), entries.end(), by_peer);
  }
  // Fold repeated peers by max and drop zeros, as observe() would.
  std::size_t kept = 0;
  for (const Entry& entry : entries) {
    if (entry.second == 0) continue;
    if (kept > 0 && entries[kept - 1].first == entry.first) {
      entries[kept - 1].second =
          std::max(entries[kept - 1].second, entry.second);
    } else {
      entries[kept++] = entry;
    }
  }
  entries.resize(kept);
  VersionVector vv;
  vv.counters_ = std::move(entries);
  return vv;
}

std::uint64_t VersionVector::increment(common::PeerId peer) {
  const auto it =
      std::lower_bound(counters_.begin(), counters_.end(), peer, peer_less);
  if (it != counters_.end() && it->first == peer) return ++it->second;
  counters_.insert(it, Entry{peer, 1});
  return 1;
}

void VersionVector::observe(common::PeerId peer, std::uint64_t counter) {
  if (counter == 0) return;  // zero entries stay implicit
  const auto it =
      std::lower_bound(counters_.begin(), counters_.end(), peer, peer_less);
  if (it != counters_.end() && it->first == peer) {
    it->second = std::max(it->second, counter);
  } else {
    counters_.insert(it, Entry{peer, counter});
  }
}

std::uint64_t VersionVector::get(common::PeerId peer) const noexcept {
  const auto it =
      std::lower_bound(counters_.begin(), counters_.end(), peer, peer_less);
  return it != counters_.end() && it->first == peer ? it->second : 0;
}

void VersionVector::merge(const VersionVector& other) {
  // One lockstep pass takes the max of every shared peer in place and
  // counts the peers only `other` has. A store summary already names
  // every writer it meets, so that count is usually zero and we are done.
  std::size_t missing = 0;
  auto mine = counters_.begin();
  for (const Entry& theirs : other.counters_) {
    while (mine != counters_.end() && mine->first < theirs.first) ++mine;
    if (mine != counters_.end() && mine->first == theirs.first) {
      mine->second = std::max(mine->second, theirs.second);
      ++mine;
    } else {
      ++missing;
    }
  }
  if (missing == 0) return;

  // Grow once, then merge back to front so no entry moves twice. Shared
  // peers already hold their max; entries of ours below the smallest
  // remaining peer of `other` are already in place when it runs out.
  std::size_t i = counters_.size();
  std::size_t j = other.counters_.size();
  std::size_t k = i + missing;
  counters_.resize(k);
  while (j > 0) {
    const Entry& theirs = other.counters_[j - 1];
    if (i > 0 && !(counters_[i - 1].first < theirs.first)) {
      if (counters_[i - 1].first == theirs.first) --j;
      counters_[--k] = counters_[--i];
    } else {
      counters_[--k] = theirs;
      --j;
    }
  }
}

Causality VersionVector::compare(const VersionVector& other) const noexcept {
  bool some_greater = false;
  bool some_less = false;
  // Walk both sorted arrays in lockstep; a missing entry counts as zero and
  // every stored counter is positive.
  auto a = counters_.begin();
  auto b = other.counters_.begin();
  const auto a_end = counters_.end();
  const auto b_end = other.counters_.end();
  while (a != a_end && b != b_end) {
    if (a->first < b->first) {
      some_greater = true;
      ++a;
    } else if (b->first < a->first) {
      some_less = true;
      ++b;
    } else {
      if (a->second > b->second) some_greater = true;
      if (a->second < b->second) some_less = true;
      ++a;
      ++b;
    }
    if (some_greater && some_less) return Causality::kConcurrent;
  }
  if (a != a_end) some_greater = true;
  if (b != b_end) some_less = true;
  if (some_greater && some_less) return Causality::kConcurrent;
  if (some_greater) return Causality::kDominates;
  if (some_less) return Causality::kDominatedBy;
  return Causality::kEqual;
}

std::uint64_t VersionVector::total_events() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [peer, counter] : counters_) total += counter;
  return total;
}

std::string VersionVector::to_string() const {
  std::ostringstream out;
  out << *this;
  return out.str();
}

std::ostream& operator<<(std::ostream& os, const VersionVector& vv) {
  os << '{';
  bool first = true;
  for (const auto& [peer, counter] : vv.entries()) {
    if (!first) os << ", ";
    first = false;
    os << peer.value() << ':' << counter;
  }
  return os << '}';
}

}  // namespace updp2p::version
