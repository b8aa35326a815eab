// sim_wire: the paper's population-scale experiment on the round
// simulator, with every message serialised through the codec.
//
// 10,000 replicas, full bootstrap views, f_r = 0.01, two shards. Churn is
// stationary Bernoulli at R_on = 20 %, σ = 0.95 and
// p_j = (1-σ)·R_on/(1-R_on) = 0.0125, with reconnect pull on, so every
// update meets the same online population however many came before it.
// Each update runs a fixed window of rounds on one reused simulator.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "churn/churn_model.hpp"
#include "checks.hpp"
#include "layers.hpp"
#include "sim/round_simulator.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace updp2p;

namespace {

constexpr std::size_t kPopulation = 10'000;
constexpr double kOnline = 0.20;
constexpr double kSigma = 0.95;
constexpr double kJoin = (1.0 - kSigma) * kOnline / (1.0 - kOnline);
constexpr double kFanout = 0.01;
constexpr unsigned kShards = 2;
/// Rounds simulated per update (the fixed window).
constexpr common::Round kWindow = 8;
/// F_aware an update must reach within its window. Stationary joins keep
/// bringing unaware peers online, so the window ends near 0.96, never 0.99.
constexpr double kTarget = 0.90;
constexpr std::size_t kKeys = 4;
/// Untimed updates first: from a fresh simulator, push volume per update
/// climbs for about ten updates (232 k -> ~450 k messages, ~470 -> ~2,200
/// bytes per message) before it levels off.
constexpr int kWarmupUpdates = 12;
constexpr int kSetupRepeats = 9;
/// Timed updates per second of --seconds (calibrated so a run measures
/// about --seconds on a 4-core x86 host).
constexpr double kUpdatesPerSecond = 1.3;

sim::RoundSimConfig make_config(std::uint64_t seed, unsigned shards,
                                bool wire) {
  sim::RoundSimConfig config;
  config.population = kPopulation;
  config.gossip.fanout_fraction = kFanout;
  config.gossip.estimated_total_replicas = kPopulation;
  config.initial_view_size = 0;
  config.max_rounds = kWindow;
  config.quiescence_rounds = kWindow + 1;  // never stop before the window ends
  config.reconnect_pull = true;
  config.round_timers = true;
  config.serialize_messages = wire;
  config.seed = seed;
  config.shard_threads = shards;
  return config;
}

std::unique_ptr<sim::RoundSimulator> make_simulator(std::uint64_t seed,
                                                    unsigned shards,
                                                    bool wire) {
  auto churn = std::make_unique<churn::BernoulliChurn>(kPopulation, kOnline,
                                                       kSigma, kJoin);
  return std::make_unique<sim::RoundSimulator>(make_config(seed, shards, wire),
                                               std::move(churn));
}

/// Rounds from the update's own first round until F_aware first reached
/// the target, interpolated linearly inside the crossing round; nullopt if
/// the window ended first.
std::optional<double> rounds_to_target(const sim::RunMetrics& metrics) {
  const common::Round origin = metrics.rounds.front().round;
  double previous = 0.0;
  for (const sim::RoundMetrics& round : metrics.rounds) {
    const double fraction = round.aware_fraction();
    const double at = static_cast<double>(round.round - origin);
    if (fraction >= kTarget) {
      if (at == 0.0 || fraction <= previous) return at;
      return at - 1.0 + (kTarget - previous) / (fraction - previous);
    }
    previous = fraction;
  }
  return std::nullopt;
}

std::string key_of(int update) {
  return "key-" + std::to_string(update % static_cast<int>(kKeys));
}

GossipTotals gossip_totals(const sim::RoundSimulator& sim) {
  GossipTotals t;
  for (std::uint32_t i = 0; i < sim.population(); ++i) {
    t.add(sim.node(common::PeerId(i)).stats());
  }
  return t;
}

/// The same update sequence on a fresh simulator, for the shard-speedup
/// and codec-share comparisons: every update's metrics (compared across
/// configurations), and the median wall milliseconds of the updates after
/// the first `warmup`.
struct Reference {
  std::vector<sim::RunMetrics> metrics;
  double ms = 0.0;
};

Reference reference_run(std::uint64_t seed, unsigned shards, bool wire,
                        int warmup, int updates) {
  auto sim = make_simulator(seed, shards, wire);
  Reference out;
  std::vector<double> times;
  for (int i = 0; i < warmup + updates; ++i) {
    const double start = wall_now();
    out.metrics.push_back(sim->propagate_update(
        std::nullopt, key_of(i), "ref-" + std::to_string(i)));
    if (i >= warmup) times.push_back((wall_now() - start) * 1e3);
  }
  out.ms = median(times);
  return out;
}

}  // namespace

void run_sim_wire(const Options& options, Report& report) {
  const std::uint64_t seed = derive_seed(options.seed, 0x51'4d);

  // --- set-up: build and bootstrap the population, several times ---------
  tracer().enabled = options.trace;
  Measured measured;
  std::unique_ptr<sim::RoundSimulator> sim;
  for (int i = 0; i < kSetupRepeats; ++i) {
    sim.reset();
    const Scope span(SpanName::kSimSetup);
    const double start = wall_now();
    sim = make_simulator(seed, kShards, /*wire=*/true);
    measured.setup_s.push_back(wall_now() - start);
  }
  tracer().enabled = false;
  add_provenance(report, sim->shard_count());
  report.note("shard_threads_ran", std::to_string(sim->shard_count()));
  report.check(sim->shard_count() == kShards, "simulator runs 2 shards");

  // --- warm-up updates (untimed) -----------------------------------------
  int update = 0;
  for (; update < kWarmupUpdates; ++update) {
    (void)sim->propagate_update(std::nullopt, key_of(update),
                                "warm-" + std::to_string(update));
  }

  // --- timed updates --------------------------------------------------------
  const int timed = std::max(
      12, static_cast<int>(std::lround(options.seconds * kUpdatesPerSecond)));
  const GossipTotals gossip_before = gossip_totals(*sim);
  const net::BusStats bus_before = sim->bus_stats();
  std::vector<double> traced_ms, untraced_ms, msgs, bytes;
  std::size_t bad_windows = 0;
  const double cpu_start = cpu_seconds();
  for (int i = 0; i < timed; ++i, ++update) {
    // A traced run interleaves traced and untraced updates so the trace's
    // own cost shows as the difference of their medians.
    tracer().enabled = options.trace && i % 2 == 0;
    const std::string payload = "update-" + std::to_string(update);
    sim::RunMetrics m;
    const double start = wall_now();
    {
      const Scope span(SpanName::kSimUpdate);
      m = sim->propagate_update(std::nullopt, key_of(update), payload);
    }
    const double seconds = wall_now() - start;
    (tracer().enabled ? traced_ms : untraced_ms).push_back(seconds * 1e3);
    tracer().enabled = false;
    measured.update_ms.push_back(seconds * 1e3);
    measured.wall_s += seconds;
    msgs.push_back(static_cast<double>(m.total_messages()));
    bytes.push_back(static_cast<double>(m.total_bytes()));
    measured.messages += msgs.back();
    measured.bytes += bytes.back();
    measured.aware_frac.push_back(m.final_aware_fraction());
    if (m.rounds.size() != static_cast<std::size_t>(kWindow) + 1) {
      ++bad_windows;
    }
    ++measured.attempted;
    if (const auto r = rounds_to_target(m)) {
      measured.rounds_to_aware.push_back(*r);
    } else {
      ++measured.missed;
    }
  }
  measured.cpu_s = cpu_seconds() - cpu_start;
  report.check(bad_windows == 0, "every update runs the fixed window");
  report.check(measured.messages > 0.0, "updates exchange messages");
  report_end_to_end(report, measured);
  const std::vector<double>& update_ms = measured.update_ms;
  report.note("target_fraction", format_double(kTarget) + " within " +
                                     std::to_string(kWindow) + " rounds");

  // First- and last-quartile work per update, so drift in the work shows
  // apart from drift in the time.
  const std::size_t quarter = std::max<std::size_t>(1, update_ms.size() / 4);
  const auto slice_mean = [&](const std::vector<double>& v, bool last) {
    const auto begin = last ? v.end() - static_cast<std::ptrdiff_t>(quarter)
                            : v.begin();
    return mean(std::vector<double>(
        begin, begin + static_cast<std::ptrdiff_t>(quarter)));
  };
  report.note("msgs_per_update_q1_q4", format_double(slice_mean(msgs, false)) +
                                           " " +
                                           format_double(slice_mean(msgs, true)));
  report.note("bytes_per_update_q1_q4",
              format_double(slice_mean(bytes, false)) + " " +
                  format_double(slice_mean(bytes, true)));
  report.note("update_ms_q1_q4", format_double(slice_mean(update_ms, false)) +
                                     " " +
                                     format_double(slice_mean(update_ms, true)));
  if (!options.trace) return;

  // --- per-layer metrics (traced run) ---------------------------------------
  report.layer("sim.round_ms", median(update_ms) / static_cast<double>(kWindow),
               "ms");
  report.layer("sim.update_ms_drift",
               slice_mean(update_ms, true) / slice_mean(update_ms, false),
               "ratio");
  report.layer("sim.msgs_per_update_q1", slice_mean(msgs, false), "count");
  report.layer("sim.msgs_per_update_q4", slice_mean(msgs, true), "count");
  report.layer("sim.bytes_per_update_q1", slice_mean(bytes, false), "B");
  report.layer("sim.bytes_per_update_q4", slice_mean(bytes, true), "B");
  const net::BusStats bus_after = sim->bus_stats();
  const double sent =
      static_cast<double>(bus_after.messages_sent - bus_before.messages_sent);
  report.layer("sim.bus_to_offline_frac",
               sent > 0.0 ? static_cast<double>(bus_after.messages_to_offline -
                                                bus_before.messages_to_offline) /
                                sent
                          : 0.0,
               "ratio");
  report_gossip_ratios(report, gossip_totals(*sim) - gossip_before);
  sim.reset();

  // The same updates at 1 and at 2 shards (bit-identical), and in memory
  // versus on the wire (identical counts, WireEquivalence).
  const std::uint64_t ref_seed = derive_seed(options.seed, 0x5245'46);
  constexpr int kRefWarmup = 3, kRefUpdates = 3;
  const Reference one = reference_run(ref_seed, 1, true, kRefWarmup, kRefUpdates);
  const Reference two =
      reference_run(ref_seed, kShards, true, kRefWarmup, kRefUpdates);
  const Reference mem =
      reference_run(ref_seed, kShards, false, kRefWarmup, kRefUpdates);
  bool shards_identical = true, wire_equal = true;
  for (std::size_t i = 0; i < one.metrics.size(); ++i) {
    shards_identical &= same_metrics(one.metrics[i], two.metrics[i]);
    wire_equal &= same_metrics(two.metrics[i], mem.metrics[i]);
  }
  report.check(shards_identical, "1-shard and 2-shard runs are bit-identical");
  report.check(wire_equal, "wire-mode counts equal the in-memory counts");
  report.layer("sim.shard_speedup", one.ms / two.ms, "ratio");
  report.layer("codec.share", 1.0 - mem.ms / two.ms, "ratio");
  report_trace(report, options, median(traced_ms), median(untraced_ms));
}

}  // namespace perfbench
