// Version vectors for causal comparison and anti-entropy reconciliation.
//
// Paper §3: pull-phase peers "inquire for missed updates based on version
// vectors". The vector maps an updating peer to the count of updates it has
// originated; component-wise comparison classifies two replica states as
// equal, dominated, dominating or concurrent.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace updp2p::version {

enum class Causality {
  kEqual,        ///< identical histories
  kDominates,    ///< this vector has seen strictly more
  kDominatedBy,  ///< the other vector has seen strictly more
  kConcurrent,   ///< conflicting histories (each saw something the other missed)
};

[[nodiscard]] const char* to_string(Causality c) noexcept;

/// Sparse version vector. Absent entries are implicitly zero, so comparing
/// vectors over disjoint updater sets behaves correctly.
///
/// Stored flat: one contiguous array of (peer, counter) entries sorted by
/// peer, with no zero counters. That form is canonical, so the defaulted
/// `==` is semantic equality and `entries()` is already the ascending wire
/// order. Copies, merges and comparisons walk one buffer instead of one
/// heap node per entry.
class VersionVector {
 public:
  using Entry = std::pair<common::PeerId, std::uint64_t>;

  VersionVector() = default;

  /// The canonical vector of `entries` in any order: repeated peers fold by
  /// max and zero counters drop, as a sequence of observe() calls would.
  /// Already-canonical input (the ascending wire order) is adopted as is.
  [[nodiscard]] static VersionVector from_entries(std::vector<Entry> entries);

  /// Records one more update originated by `peer`; returns the new counter.
  std::uint64_t increment(common::PeerId peer);

  /// Sets the counter for `peer` to max(current, counter).
  void observe(common::PeerId peer, std::uint64_t counter);

  [[nodiscard]] std::uint64_t get(common::PeerId peer) const noexcept;

  /// Component-wise maximum (join in the lattice of histories). In place
  /// when `other` names no peer missing here (the common case for a store
  /// summary); otherwise one back-to-front merge after a single resize.
  void merge(const VersionVector& other);

  [[nodiscard]] Causality compare(const VersionVector& other) const noexcept;

  /// True iff every event in this vector is also covered by `other`.
  [[nodiscard]] bool covered_by(const VersionVector& other) const noexcept {
    const Causality c = compare(other);
    return c == Causality::kEqual || c == Causality::kDominatedBy;
  }

  [[nodiscard]] bool empty() const noexcept { return counters_.empty(); }
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return counters_.size();
  }
  /// Total number of update events summarised by this vector.
  [[nodiscard]] std::uint64_t total_events() const noexcept;

  /// Non-zero entries in ascending peer order.
  [[nodiscard]] std::span<const Entry> entries() const noexcept {
    return counters_;
  }

  friend bool operator==(const VersionVector&, const VersionVector&) = default;

  [[nodiscard]] std::string to_string() const;

 private:
  /// Sorted by peer, strictly ascending, every counter > 0.
  std::vector<Entry> counters_;
};

std::ostream& operator<<(std::ostream& os, const VersionVector& vv);

}  // namespace updp2p::version
