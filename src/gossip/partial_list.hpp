// Partial flooding-list maintenance.
//
// §4.2: the list may be bounded by a threshold length, "achieved by
// discarding either random entries or the head or tail of the partial
// list"; forwarding nodes then "pay the penalty of forwarding extra
// messages" but awareness growth is unchanged.
//
// The list is a compressed ChunkedPeerSet ordered by peer id, so the
// head/tail drop policies order by id: kDropHead discards the lowest ids
// (keeps the highest), kDropTail discards the highest. kDropRandom samples
// the survivors uniformly straight from the compressed form — the merged
// list never materialises as a vector.
#pragma once

#include <span>

#include "common/chunked_peer_set.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "gossip/config.hpp"

namespace updp2p::gossip {

/// Builds the outgoing R_f into `out` (replacing its contents): the union
/// of the received list, the forwarder itself and the newly chosen
/// targets, then the configured cap. kNone yields an empty list. With warm
/// chunk buffers the call performs no heap allocation. Works with either
/// RNG engine (Rng or StreamRng); instantiated for both in the .cpp.
template <typename RngT>
void build_forward_list_into(const PartialListConfig& config,
                             const common::ChunkedPeerSet& received,
                             std::span<const common::PeerId> new_targets,
                             common::PeerId self, RngT& rng,
                             common::ChunkedPeerSet& out);

}  // namespace updp2p::gossip
