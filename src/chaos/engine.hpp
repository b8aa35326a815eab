// Chaos engine — executes a Scenario over a virtual-time cluster.
//
// The engine builds an InprocNetwork + one PeerRuntime per peer, installs
// a FaultInjector as the network's LinkFaultPolicy, then walks the
// scenario's phases: ops apply back-to-back at each phase start, the
// cluster then runs for the phase duration on a fixed tick grid. Peer
// clocks may run skewed; kill/restart recycles the runtime over the same
// (or wiped) store directory; disk faults flip the shared StoreFaults
// switchboard.
//
// Every run is a pure function of (scenario, seed, mutation): all
// randomness flows through StreamRngs keyed off the run seed, and the
// phase-boundary checkpoints (peer liveness, per-peer content digests,
// network + injector counters) fold into a 128-bit event-trace digest
// that replays bit-identically across runs, machines and sweep thread
// counts. Property violations (properties.hpp) are collected, not thrown
// — the schedule always runs to completion so the shrinker can compare
// outcomes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "chaos/fault_injector.hpp"
#include "chaos/scenario.hpp"
#include "common/hash.hpp"
#include "net/inproc_transport.hpp"
#include "runtime/peer_runtime.hpp"

namespace updp2p::chaos {

struct ChaosOptions {
  /// Root directory for durable peers' stores (one subdirectory per peer
  /// per run). Required when the scenario lists durable peers.
  std::string data_root;
  /// Seeded protocol mutation (canary runs); kNone for real checking.
  Mutation mutation = Mutation::kNone;
  /// Keep the human-readable event trace in the report.
  bool keep_trace = true;
};

struct PeerSummary {
  bool alive = true;
  bool online = true;
  bool durable = false;
  unsigned restarts = 0;
  unsigned wipes = 0;
  common::Digest128 state;  ///< final content digest (zero when dead)
  runtime::RuntimeStats stats;  ///< final runtime counters (zero when dead)
};

struct ChaosReport {
  std::string scenario;
  std::uint64_t seed = 0;
  Mutation mutation = Mutation::kNone;
  /// Fold of every phase-boundary checkpoint — the replay identity.
  common::Digest128 trace_digest;
  std::vector<std::string> violations;
  std::vector<std::string> trace;  ///< empty unless ChaosOptions::keep_trace
  std::size_t phases = 0;
  std::size_t published = 0;  ///< successful publish ops
  std::vector<PeerSummary> peers;
  net::InprocNetworkStats network;
  InjectorStats injector;

  [[nodiscard]] bool passed() const noexcept { return violations.empty(); }
};

/// Runs one scenario under one seed. Deterministic; never throws on
/// property violations (they land in the report).
[[nodiscard]] ChaosReport run_scenario(const Scenario& scenario,
                                       std::uint64_t seed,
                                       const ChaosOptions& options);

/// Runs the scenario under each seed, fanning runs across the shared
/// sweep pool (`threads` workers). Each run gets its own data directory
/// (`data_root/run-<i>`); reports come back in seed order regardless of
/// scheduling — the thread-count-invariance axis the digest tests pin.
[[nodiscard]] std::vector<ChaosReport> run_seed_sweep(
    const Scenario& scenario, std::span<const std::uint64_t> seeds,
    const ChaosOptions& options, unsigned threads);

}  // namespace updp2p::chaos
