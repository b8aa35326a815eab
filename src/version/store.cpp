#include "version/store.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/ensure.hpp"

namespace updp2p::version {

const char* to_string(ApplyOutcome o) noexcept {
  switch (o) {
    case ApplyOutcome::kApplied: return "applied";
    case ApplyOutcome::kDuplicate: return "duplicate";
    case ApplyOutcome::kObsolete: return "obsolete";
    case ApplyOutcome::kCoexisting: return "coexisting";
  }
  return "?";
}

void VersionedStore::toggle_digest(const VersionId& id) noexcept {
  content_digest_.hi ^= id.digest().hi;
  content_digest_.lo ^= id.digest().lo;
}

ApplyOutcome VersionedStore::apply(VersionedValue value) {
  auto& slot = items_[value.key];

  // The versions of a slot are pairwise concurrent, so once the newcomer
  // dominates one, no later one can dominate or equal it: every compare is
  // final and dominated versions drop out as the loop goes. Only a held id
  // can still turn up later (a hostile sender may pair it with another
  // history); checking for one first keeps that case free of side effects.
  const bool held = std::any_of(
      slot.begin(), slot.end(),
      [&value](const VersionedValue& existing) { return existing.id == value.id; });
  const std::size_t before = slot.size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < before; ++i) {
    VersionedValue& existing = slot[i];
    if (existing.id == value.id) return ApplyOutcome::kDuplicate;
    switch (value.history.compare(existing.history)) {
      case Causality::kDominatedBy:
        return ApplyOutcome::kObsolete;
      case Causality::kEqual:
        // Same causal history but a different id: a sibling write collapsed
        // into identical vectors cannot dominate; treat as obsolete to keep
        // apply idempotent and the maximal set minimal.
        return ApplyOutcome::kObsolete;
      case Causality::kDominates:
        if (held) break;
        toggle_digest(existing.id);
        continue;
      case Causality::kConcurrent:
        break;
    }
    if (kept != i) slot[kept] = std::move(existing);
    ++kept;
  }
  slot.erase(slot.begin() + static_cast<std::ptrdiff_t>(kept), slot.end());

  summary_.merge(value.history);
  toggle_digest(value.id);
  const bool coexisting = kept > 0 && kept == before;
  slot.push_back(std::move(value));
  return coexisting ? ApplyOutcome::kCoexisting : ApplyOutcome::kApplied;
}

std::vector<VersionedValue> VersionedStore::versions(
    std::string_view key) const {
  const auto it = items_.find(key);
  return it == items_.end() ? std::vector<VersionedValue>{} : it->second;
}

namespace {
/// Total-order winner among concurrent versions: most events first, then
/// VersionId as an arbitrary-but-global tiebreak. Every replica applying
/// this rule to the same version set picks the same winner (§4.4).
const VersionedValue* pick_winner(const std::vector<VersionedValue>& versions) {
  const VersionedValue* best = nullptr;
  for (const auto& v : versions) {
    if (best == nullptr ||
        v.history.total_events() > best->history.total_events() ||
        (v.history.total_events() == best->history.total_events() &&
         v.id > best->id)) {
      best = &v;
    }
  }
  return best;
}
}  // namespace

std::optional<VersionedValue> VersionedStore::read(std::string_view key) const {
  const auto it = items_.find(key);
  if (it == items_.end() || it->second.empty()) return std::nullopt;
  const VersionedValue* winner = pick_winner(it->second);
  if (winner->tombstone) return std::nullopt;
  return *winner;
}

bool VersionedStore::is_deleted(std::string_view key) const {
  const auto it = items_.find(key);
  if (it == items_.end() || it->second.empty()) return false;
  return pick_winner(it->second)->tombstone;
}

std::vector<VersionedValue> VersionedStore::missing_given(
    const VersionVector& remote_summary) const {
  std::vector<VersionedValue> out;
  for (const auto& [key, versions] : items_) {
    for (const auto& v : versions) {
      if (!v.history.covered_by(remote_summary)) out.push_back(v);
    }
  }
  return out;
}

std::vector<VersionedValue> VersionedStore::missing_for(
    std::span<const VersionId> remote_have) const {
  const std::unordered_set<VersionId> have(remote_have.begin(),
                                           remote_have.end());
  std::vector<VersionedValue> out;
  for (const auto& [key, versions] : items_) {
    for (const auto& v : versions) {
      // Not stored remotely: ship; the remote's apply() arbitrates (keeps
      // concurrents, drops dominated).
      if (!have.contains(v.id)) out.push_back(v);
    }
  }
  return out;
}

std::vector<VersionId> VersionedStore::stored_ids() const {
  std::vector<VersionId> out;
  for (const auto& [key, versions] : items_) {
    for (const auto& v : versions) out.push_back(v.id);
  }
  return out;
}

std::vector<VersionedValue> VersionedStore::all_versions() const {
  std::vector<VersionedValue> out;
  out.reserve(version_count());
  for (const auto& [key, versions] : items_) {
    out.insert(out.end(), versions.begin(), versions.end());
  }
  return out;
}

std::size_t VersionedStore::gc_tombstones(common::SimTime now,
                                          common::SimTime retention) {
  std::size_t collected = 0;
  for (auto it = items_.begin(); it != items_.end();) {
    auto& versions = it->second;
    collected += static_cast<std::size_t>(std::erase_if(
        versions, [this, now, retention](const VersionedValue& v) {
          if (v.tombstone && now - v.written_at > retention) {
            toggle_digest(v.id);
            return true;
          }
          return false;
        }));
    it = versions.empty() ? items_.erase(it) : std::next(it);
  }
  return collected;
}

std::size_t VersionedStore::version_count() const noexcept {
  std::size_t total = 0;
  for (const auto& [key, versions] : items_) total += versions.size();
  return total;
}

std::vector<std::string> VersionedStore::keys() const {
  std::vector<std::string> out;
  out.reserve(items_.size());
  for (const auto& [key, versions] : items_) out.push_back(key);
  return out;
}

VersionedValue LocalWriter::make(VersionedStore& store, std::string_view key,
                                 std::string payload, bool tombstone,
                                 common::SimTime now) {
  VersionedValue value;
  value.key = std::string(key);
  value.payload = std::move(payload);
  value.tombstone = tombstone;
  value.written_at = now;
  // The new write causally follows everything this replica has of the key.
  for (const auto& existing : store.versions(key)) {
    value.history.merge(existing.history);
  }
  value.history.increment(self_);
  value.id = id_factory_.mint(now);
  const ApplyOutcome outcome = store.apply(value);
  UPDP2P_ENSURE(outcome == ApplyOutcome::kApplied,
                "a fresh local write must dominate the local maximal set");
  return value;
}

VersionedValue LocalWriter::write(VersionedStore& store, std::string_view key,
                                  std::string payload, common::SimTime now) {
  return make(store, key, std::move(payload), /*tombstone=*/false, now);
}

VersionedValue LocalWriter::erase(VersionedStore& store, std::string_view key,
                                  common::SimTime now) {
  return make(store, key, std::string{}, /*tombstone=*/true, now);
}

}  // namespace updp2p::version
