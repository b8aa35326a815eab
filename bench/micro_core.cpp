// Microbenchmarks (google-benchmark) for the library's hot paths: version
// vector comparison/merge, store apply (chain and wide history)/delta,
// replica-view sampling, partial-list construction, full simulated push
// phases, and the analytical-model evaluation itself.
//
// Usage:
//   micro_core                  full run; writes BENCH_core.json (ns/op,
//                               messages/sec, peak RSS) to the working dir
//   micro_core --smoke          one quick pass over every bench, no JSON —
//                               the sanitizer-build sanity check
//   micro_core --json=<path>    override the JSON output path
//   micro_core --benchmark_repetitions=5
//                               each JSON row is the median repetition;
//                               the checked-in baseline is captured this
//                               way
// Any other flags pass through to google-benchmark (the JSON is built from
// the individual repetitions, so --benchmark_report_aggregates_only leaves
// it empty).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/push_model.hpp"
#include "bench_util.hpp"
#include "common/chunked_peer_set.hpp"
#include "common/rng.hpp"
#include "gossip/codec.hpp"
#include "gossip/node.hpp"
#include "gossip/partial_list.hpp"
#include "gossip/replica_view.hpp"
#include "net/message_bus.hpp"
#include "sim/round_simulator.hpp"
#include "store/wal.hpp"
#include "version/store.hpp"

using namespace updp2p;

namespace {

version::VersionVector make_vector(std::size_t entries, std::uint64_t base) {
  version::VersionVector vv;
  for (std::size_t i = 0; i < entries; ++i) {
    vv.observe(common::PeerId(static_cast<std::uint32_t>(i)), base + i);
  }
  return vv;
}

void BM_VersionVectorCompare(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  const auto a = make_vector(entries, 5);
  auto b = make_vector(entries, 5);
  b.increment(common::PeerId(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.compare(b));
  }
}
BENCHMARK(BM_VersionVectorCompare)->Arg(8)->Arg(64)->Arg(512);

void BM_VersionVectorMerge(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  const auto a = make_vector(entries, 5);
  const auto b = make_vector(entries, 9);
  for (auto _ : state) {
    version::VersionVector merged = a;
    merged.merge(b);
    benchmark::DoNotOptimize(merged);
  }
}
BENCHMARK(BM_VersionVectorMerge)->Arg(8)->Arg(64)->Arg(512);

void BM_StoreApplyChain(benchmark::State& state) {
  // Repeatedly apply a chain of dominating versions to one key.
  for (auto _ : state) {
    state.PauseTiming();
    version::VersionedStore store;
    version::LocalWriter writer(common::PeerId(1), common::Rng(7));
    state.ResumeTiming();
    for (int i = 0; i < 64; ++i) {
      benchmark::DoNotOptimize(
          writer.write(store, "key", "payload", static_cast<double>(i)));
    }
  }
}
BENCHMARK(BM_StoreApplyChain);

void BM_StoreApplyWideHistory(benchmark::State& state) {
  // The late-sim_wire receive shape: the store's summary already names 96
  // writers, and each arriving value carries a 24-writer history that
  // dominates the one version held for its key. Each op copies the value
  // into apply(), as a push receipt does.
  constexpr std::uint32_t kWriters = 96;
  constexpr std::uint32_t kHistory = 24;
  constexpr std::size_t kChain = 4096;
  version::VersionIdFactory ids(common::PeerId(1), common::Rng(7));
  version::VersionedValue wide;
  wide.key = "summary";
  wide.payload = "payload";
  wide.id = ids.mint(0.0);
  for (std::uint32_t w = 0; w < kWriters; ++w) {
    wide.history.observe(common::PeerId(w), 1'000'000);
  }
  // A chain of values on one key, each dominating the one before it.
  version::VersionedValue link;
  link.key = "key";
  link.payload = "payload";
  for (std::uint32_t w = 0; w < kHistory; ++w) {
    link.history.observe(common::PeerId(w * (kWriters / kHistory)), 1);
  }
  std::vector<version::VersionedValue> chain;
  chain.reserve(kChain);
  for (std::size_t i = 0; i < kChain; ++i) {
    const auto writer = static_cast<std::uint32_t>(i % kHistory);
    link.history.increment(common::PeerId(writer * (kWriters / kHistory)));
    link.id = ids.mint(static_cast<double>(i));
    chain.push_back(link);
  }
  const auto fresh_store = [&wide] {
    version::VersionedStore store;
    (void)store.apply(wide);
    return store;
  };
  version::VersionedStore store = fresh_store();
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == kChain) {
      state.PauseTiming();
      store = fresh_store();
      next = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(store.apply(chain[next++]));
  }
}
BENCHMARK(BM_StoreApplyWideHistory);

void BM_StoreDelta(benchmark::State& state) {
  version::VersionedStore rich;
  version::LocalWriter writer(common::PeerId(1), common::Rng(7));
  for (int i = 0; i < 128; ++i) {
    (void)writer.write(rich, "key-" + std::to_string(i), "payload",
                       static_cast<double>(i));
  }
  const version::VersionVector empty_summary;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rich.missing_given(empty_summary));
  }
}
BENCHMARK(BM_StoreDelta);

void BM_ViewSampleInto(benchmark::State& state) {
  // The allocation-free path the simulators actually run: scratch output
  // vector plus the view's own epoch-stamped scratch sets.
  const auto population = static_cast<std::uint32_t>(state.range(0));
  gossip::ReplicaView view{common::PeerId(0)};
  for (std::uint32_t i = 1; i < population; ++i) {
    view.add(common::PeerId(i));
  }
  common::Rng rng(99);
  std::vector<common::PeerId> out;
  for (auto _ : state) {
    view.sample_into(rng, 32, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ViewSampleInto)->Arg(256)->Arg(4096);

void BM_BuildForwardListInto(benchmark::State& state) {
  // The allocation-free path the node runs per handled push: merge the
  // received chunked list with the new targets and cap-sample, reusing one
  // arena ChunkedPeerSet (warm chunk buffers) across calls.
  gossip::PartialListConfig config;
  config.mode = gossip::PartialListMode::kDropRandom;
  config.max_entries = 128;
  common::ChunkedPeerSet received;
  std::vector<common::PeerId> targets;
  for (std::uint32_t i = 0; i < 256; ++i) received.insert(common::PeerId(i));
  for (std::uint32_t i = 200; i < 260; ++i) targets.emplace_back(i);
  common::Rng rng(3);
  common::ChunkedPeerSet out;
  for (auto _ : state) {
    gossip::build_forward_list_into(config, received, targets,
                                    common::PeerId(1000), rng, out);
    benchmark::DoNotOptimize(&out);
  }
}
BENCHMARK(BM_BuildForwardListInto);

void BM_AnalyticalPushModel(benchmark::State& state) {
  analysis::PushModelParams params;
  params.total_replicas = static_cast<double>(state.range(0));
  params.initial_online = params.total_replicas * 0.1;
  params.fanout_fraction = 100.0 / params.total_replicas;
  params.pf = analysis::pf_offset_geometric(0.8, 0.7, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::evaluate_push(params));
  }
}
BENCHMARK(BM_AnalyticalPushModel)->Arg(10'000)->Arg(1'000'000);

/// A push frame shaped like acceptance-scale traffic: a realistic value
/// plus a 100-entry flooding list (one array chunk of delta varints).
gossip::GossipPayload codec_bench_payload() {
  gossip::PushMessage push;
  version::VersionedValue value;
  value.key = "calendar/fri-10am";
  value.payload = "standup moved to 10:30 — war room";
  version::VersionIdFactory factory(common::PeerId(3), common::Rng(17));
  value.id = factory.mint(12.5);
  value.history.observe(common::PeerId(3), 7);
  value.history.observe(common::PeerId(900), 2);
  push.value = std::move(value);
  push.round = 4;
  for (std::uint32_t i = 0; i < 100; ++i) {
    push.flooding_list.insert(common::PeerId(13 * i));
  }
  return gossip::GossipPayload{std::move(push)};
}

// The wire pipeline, split by phase. The point of the split: a receiver
// classifying a duplicate pays ONLY the probe row; a first receipt pays
// probe + lazy-decode; the legacy path paid the round-trip row for every
// message. At the paper's ~80% duplicate rate the weighted per-message
// cost collapses toward the probe row.

void BM_CodecRoundTrip(benchmark::State& state) {
  const gossip::GossipPayload payload = codec_bench_payload();
  for (auto _ : state) {
    const gossip::WireBytes frame = gossip::encode(payload);
    auto decoded = gossip::decode(frame);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_CodecRoundTrip);

void BM_CodecEncode(benchmark::State& state) {
  const gossip::GossipPayload payload = codec_bench_payload();
  gossip::WireBytes frame;  // warm, as the pooled runtime path runs it
  for (auto _ : state) {
    gossip::encode_into(payload, frame);
    benchmark::DoNotOptimize(frame.data());
  }
}
BENCHMARK(BM_CodecEncode);

void BM_CodecProbe(benchmark::State& state) {
  const gossip::WireBytes frame = gossip::encode(codec_bench_payload());
  for (auto _ : state) {
    auto probe = gossip::probe_frame(frame);
    benchmark::DoNotOptimize(probe);
  }
}
BENCHMARK(BM_CodecProbe);

void BM_CodecLazyDecode(benchmark::State& state) {
  const gossip::WireBytes frame = gossip::encode(codec_bench_payload());
  common::ChunkedPeerSet list;  // warm: parked chunks are reused
  for (auto _ : state) {
    auto push = gossip::decode_push_into(frame, list);
    benchmark::DoNotOptimize(push);
  }
}
BENCHMARK(BM_CodecLazyDecode);

/// Attaches the traffic counters the JSON reporter folds into its
/// messages_per_sec / bytes_per_msg / threads columns. `shards` is the
/// requested parallelism; the threads column records what could really
/// run, min(shards, usable threads), so a scaling row captured on a
/// one-CPU host does not claim eight threads.
void set_traffic_counters(benchmark::State& state, std::uint64_t messages,
                          std::uint64_t bytes, unsigned shards) {
  state.counters["messages"] =
      benchmark::Counter(static_cast<double>(messages));
  state.counters["bytes"] = benchmark::Counter(static_cast<double>(bytes));
  state.counters["threads"] = benchmark::Counter(
      static_cast<double>(std::min(shards, bench::usable_threads())));
}

void BM_StoreAppend(benchmark::State& state) {
  // The durable-store hot path: the per-receipt cost a durable peer pays
  // before its ack leaves — frame one WAL record (CRC-32C over seq+body),
  // one write(2), no fsync (the runtime default).
  const std::string path = "/tmp/updp2p_bench_append.wal";
  std::remove(path.c_str());
  auto wal = store::FrameWal::open_for_append(path, 0, 1, false, nullptr);
  if (!wal) {
    state.SkipWithError("cannot open bench WAL");
    return;
  }
  const gossip::WireBytes frame = gossip::encode(codec_bench_payload());
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal->append(common::PeerId(1), 4, frame));
  }
  set_traffic_counters(state, static_cast<std::uint64_t>(state.iterations()),
                       wal->appended_bytes(), 1);
  wal.reset();
  std::remove(path.c_str());
}
BENCHMARK(BM_StoreAppend);

/// A 10k-record WAL image built once through the real appender: distinct
/// versions so every replayed frame mutates the node's store.
std::vector<std::byte> replay_bench_image() {
  const std::string path = "/tmp/updp2p_bench_replay.wal";
  std::remove(path.c_str());
  auto wal = store::FrameWal::open_for_append(path, 0, 1, false, nullptr);
  if (!wal) return {};
  gossip::WireBytes frame;
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    version::VersionedValue value;
    value.key = "key-" + std::to_string(i % 16);
    value.payload = "payload-" + std::to_string(i);
    version::VersionIdFactory factory(common::PeerId(1 + i % 30),
                                      common::Rng(i * 7 + 1));
    value.id = factory.mint(static_cast<double>(i));
    value.history.observe(common::PeerId(1 + i % 30), 1 + i);
    value.written_at = static_cast<double>(i);
    gossip::GossipPayload payload = gossip::PushMessage{
        gossip::SharedValue(std::move(value)), gossip::SharedPeerList{}, 0};
    gossip::encode_into(payload, frame);
    (void)wal->append(common::PeerId(1 + i % 30), 0, frame);
  }
  wal.reset();
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(raw.size());
  std::memcpy(bytes.data(), raw.data(), raw.size());
  std::remove(path.c_str());
  return bytes;
}

void BM_StoreReplay10k(benchmark::State& state) {
  // Crash-recovery replay at snapshot-cadence scale: scan 10k framed
  // records (length + CRC verification each), decode every frame, and
  // apply it through a fresh node's handle_frame — the exact pipeline a
  // restarting durable peer runs before it starts listening.
  const std::vector<std::byte> image = replay_bench_image();
  gossip::GossipConfig config;
  config.estimated_total_replicas = 50;
  config.fanout_fraction = 0.1;
  config.forward_probability = analysis::pf_constant(1.0);
  config.partial_list.mode = gossip::PartialListMode::kUnbounded;
  std::vector<common::PeerId> view;
  for (std::uint32_t i = 1; i < 50; ++i) view.emplace_back(i);
  std::uint64_t replayed = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    gossip::ReplicaNode node(common::PeerId(0), config, common::StreamRng(7));
    node.bootstrap(view);
    std::vector<gossip::OutboundMessage> discard;
    state.ResumeTiming();
    const auto scan =
        store::scan_wal(image, 1, [&](const store::WalRecord& record) {
          discard.clear();
          if (node.handle_frame(record.from, record.frame, record.round,
                                discard)) {
            ++replayed;
          }
        });
    benchmark::DoNotOptimize(scan.records);
    bytes += image.size();
  }
  set_traffic_counters(state, replayed, bytes, 1);
}
BENCHMARK(BM_StoreReplay10k)->Unit(benchmark::kMillisecond);

void BM_BusCollect(benchmark::State& state) {
  // The bus exchange of one wire-mode round at sim_wire scale: ~230k
  // slot-carrying envelopes, fanned out by senders of both source shards,
  // collected into one 5,000-peer shard of a 10,000-peer population with
  // 80 % of recipients offline (the paper's availability). Every envelope
  // of a fan-out carries the same outbox slot, as RoundOutbox::put gives
  // it. Times collect_into alone — drop the offline-bound envelopes, place
  // the rest by recipient, order each recipient's run; the sends that
  // refill the bus are untimed.
  constexpr std::uint32_t kPopulation = 10'000;
  constexpr std::uint32_t kShardBlock = kPopulation / 2;
  constexpr std::size_t kEnvelopes = 230'000;
  constexpr std::size_t kFanout = 50;
  common::Rng rng(13);
  std::vector<std::uint8_t> online(kPopulation);
  for (auto& flag : online) flag = rng.bernoulli(0.2) ? 1 : 0;
  const std::size_t frame_bytes = gossip::encoded_size(codec_bench_payload());
  struct Send {
    common::PeerId from;
    common::PeerId to;
    std::uint32_t seq;
    std::uint32_t slot;
  };
  std::vector<Send> sends;
  std::vector<std::uint32_t> next_seq(kPopulation, 0);
  for (std::uint32_t slot = 0; sends.size() < kEnvelopes; ++slot) {
    const common::PeerId from(
        static_cast<std::uint32_t>(rng.uniform_below(kPopulation)));
    for (std::size_t i = 0; i < kFanout; ++i) {
      const common::PeerId to(
          static_cast<std::uint32_t>(rng.uniform_below(kShardBlock)));
      sends.push_back(Send{from, to, next_seq[from.value()]++, slot});
    }
  }
  net::ShardedMessageBus<std::uint32_t> bus(2, kPopulation);
  std::vector<net::Envelope<std::uint32_t>> batch;
  const auto is_online = [&online](common::PeerId peer) {
    return online[peer.value()] != 0;
  };
  std::uint64_t collected = 0;
  for (auto _ : state) {
    state.PauseTiming();
    batch.clear();
    for (const Send& send : sends) {
      bus.send(send.from, send.to, send.slot, frame_bytes, send.seq);
    }
    bus.begin_round();
    state.ResumeTiming();
    bus.collect_into(0, batch, is_online);
    benchmark::DoNotOptimize(batch.data());
    benchmark::ClobberMemory();
    collected += sends.size();
  }
  set_traffic_counters(state, collected, 0, 1);
}
BENCHMARK(BM_BusCollect)->Unit(benchmark::kMillisecond);

void BM_SimulatedUpdate(benchmark::State& state) {
  const auto population = static_cast<std::size_t>(state.range(0));
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::RoundSimConfig config;
    config.population = population;
    config.gossip.estimated_total_replicas = population;
    config.gossip.fanout_fraction = 0.02;
    config.reconnect_pull = false;
    config.round_timers = false;
    auto simulator = sim::make_push_phase_simulator(config, 0.2, 0.95);
    state.ResumeTiming();
    const sim::RunMetrics metrics = simulator->propagate_update();
    messages += metrics.total_messages();
    bytes += metrics.total_bytes();
    benchmark::DoNotOptimize(&metrics);
  }
  set_traffic_counters(state, messages, bytes, 1);
}
BENCHMARK(BM_SimulatedUpdate)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_SimulatedUpdate10k(benchmark::State& state) {
  // The acceptance-scale run: 10k replicas, 20% online, fanout 100. One
  // iteration is a full propagate_update (roughly 175k protocol messages
  // over 8 rounds), so this measures the whole step_round pipeline —
  // delivery, handling, forward-list building, dispatch — at scale.
  // Runs the sharded engine at 8 shard threads (results are bit-identical
  // to sequential; see GoldenDeterminism.ShardInvariance).
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::RoundSimConfig config;
    config.population = 10'000;
    config.gossip.estimated_total_replicas = 10'000;
    config.gossip.fanout_fraction = 0.01;
    config.reconnect_pull = false;
    config.round_timers = false;
    config.seed = 5;
    config.shard_threads = 8;
    auto simulator = sim::make_push_phase_simulator(config, 0.2, 0.95);
    state.ResumeTiming();
    const sim::RunMetrics metrics = simulator->propagate_update();
    messages += metrics.total_messages();
    bytes += metrics.total_bytes();
    benchmark::DoNotOptimize(&metrics);
  }
  set_traffic_counters(state, messages, bytes, 8);
}
BENCHMARK(BM_SimulatedUpdate10k)->Unit(benchmark::kMillisecond);

void BM_SimulatedUpdate10kWire(benchmark::State& state) {
  // The same acceptance-scale run with serialize_messages on: every
  // dispatched payload travels as real codec bytes and every delivery goes
  // through the frame path. The gap between this row and
  // BM_SimulatedUpdate10k is the whole cost of running the actual wire
  // protocol instead of the in-memory approximation; the zero-copy
  // pipeline (interned push frames + probe-classified duplicates) is what
  // keeps it small. Results are bit-identical to the in-memory row
  // (WireEquivalence suite).
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::RoundSimConfig config;
    config.population = 10'000;
    config.gossip.estimated_total_replicas = 10'000;
    config.gossip.fanout_fraction = 0.01;
    config.reconnect_pull = false;
    config.round_timers = false;
    config.seed = 5;
    config.shard_threads = 8;
    config.serialize_messages = true;
    auto simulator = sim::make_push_phase_simulator(config, 0.2, 0.95);
    state.ResumeTiming();
    const sim::RunMetrics metrics = simulator->propagate_update();
    messages += metrics.total_messages();
    bytes += metrics.total_bytes();
    benchmark::DoNotOptimize(&metrics);
  }
  set_traffic_counters(state, messages, bytes, 8);
}
BENCHMARK(BM_SimulatedUpdate10kWire)->Unit(benchmark::kMillisecond);

void BM_SimulatedUpdateScaling(benchmark::State& state) {
  // Thread-count scaling sweep over the same 10k-replica run: Arg is the
  // shard_threads value. Because results are bit-identical at every value,
  // the rows differ ONLY in wall-clock — a direct read of parallel
  // speedup (or, on few-core hosts, of sharding overhead).
  const auto shard_threads = static_cast<unsigned>(state.range(0));
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::RoundSimConfig config;
    config.population = 10'000;
    config.gossip.estimated_total_replicas = 10'000;
    config.gossip.fanout_fraction = 0.01;
    config.reconnect_pull = false;
    config.round_timers = false;
    config.seed = 5;
    config.shard_threads = shard_threads;
    auto simulator = sim::make_push_phase_simulator(config, 0.2, 0.95);
    state.ResumeTiming();
    const sim::RunMetrics metrics = simulator->propagate_update();
    messages += metrics.total_messages();
    bytes += metrics.total_bytes();
    benchmark::DoNotOptimize(&metrics);
  }
  set_traffic_counters(state, messages, bytes, shard_threads);
}
BENCHMARK(BM_SimulatedUpdateScaling)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatedUpdateLarge(benchmark::State& state) {
  // Population-scale runs (100k default; 1M behind --large). The point is
  // twofold: wall-clock at population scale, and memory — the SoA/arena
  // work has to keep the 100k run's peak RSS under 1.7 GB (tracked via
  // this bench's rss_delta_kb in BENCH_core.json).
  const auto population = static_cast<std::size_t>(state.range(0));
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::RoundSimConfig config;
    config.population = population;
    config.gossip.estimated_total_replicas = population;
    // Fanout 100 at every scale, like the paper's large-population runs.
    config.gossip.fanout_fraction = 100.0 / static_cast<double>(population);
    // Partial bootstrap views: full membership knowledge at 100k+ nodes
    // would cost O(population²) memory (hundreds of KB of view state per
    // node). 300 peers per view keeps per-node state O(|view|) — the
    // regime the paper's partial-knowledge assumption describes — and is
    // 3x the fanout, so sampling never starves.
    config.initial_view_size = 300;
    config.reconnect_pull = false;
    config.round_timers = false;
    config.seed = 5;
    config.shard_threads = 8;
    auto simulator = sim::make_push_phase_simulator(config, 0.2, 0.95);
    state.ResumeTiming();
    const sim::RunMetrics metrics = simulator->propagate_update();
    messages += metrics.total_messages();
    bytes += metrics.total_bytes();
    benchmark::DoNotOptimize(&metrics);
  }
  set_traffic_counters(state, messages, bytes, 8);
}
void RegisterLargeBenches(bool include_million) {
  auto* bench = benchmark::RegisterBenchmark("BM_SimulatedUpdate100k",
                                             BM_SimulatedUpdateLarge)
                    ->Arg(100'000)
                    ->Unit(benchmark::kMillisecond)
                    ->Iterations(1);
  (void)bench;
  if (include_million) {
    benchmark::RegisterBenchmark("BM_SimulatedUpdate1M",
                                 BM_SimulatedUpdateLarge)
        ->Arg(1'000'000)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
}

/// Console output plus one record per benchmark for BENCH_core.json. With
/// --benchmark_repetitions=N google-benchmark reports the N repetitions of
/// one benchmark as one batch (and its aggregates as a later batch, which
/// is skipped): the record is the median repetition, so one slow or fast
/// sample cannot move a row.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    std::vector<bench::CoreBenchRecord> repetitions;
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred ||
          run.iterations == 0) {
        continue;
      }
      bench::CoreBenchRecord record;
      record.name = run.benchmark_name();
      record.ns_per_op = run.real_accumulated_time /
                         static_cast<double>(run.iterations) * 1e9;
      const auto messages = run.counters.find("messages");
      if (messages != run.counters.end() && run.real_accumulated_time > 0) {
        record.messages_per_sec =
            messages->second.value / run.real_accumulated_time;
      }
      const auto bytes = run.counters.find("bytes");
      if (messages != run.counters.end() && bytes != run.counters.end() &&
          messages->second.value > 0) {
        record.bytes_per_msg = bytes->second.value / messages->second.value;
      }
      const auto threads = run.counters.find("threads");
      if (threads != run.counters.end() && threads->second.value >= 1) {
        record.threads = static_cast<unsigned>(threads->second.value);
      }
      repetitions.push_back(std::move(record));
    }
    if (repetitions.empty()) return;
    // The middle repetition by time (the lower middle for an even count).
    const auto middle = repetitions.begin() +
                        static_cast<std::ptrdiff_t>((repetitions.size() - 1) / 2);
    std::nth_element(repetitions.begin(), middle, repetitions.end(),
                     [](const bench::CoreBenchRecord& a,
                        const bench::CoreBenchRecord& b) {
                       return a.ns_per_op < b.ns_per_op;
                     });
    bench::CoreBenchRecord record = std::move(*middle);
    record.repetitions = static_cast<unsigned>(repetitions.size());
    // Peak-RSS growth since the previous batch, attributed to this one
    // (batches are per benchmark, so this pins footprint growth on the
    // bench that caused it).
    const std::int64_t peak_now = bench::peak_rss_kb();
    record.rss_delta_kb = peak_now - last_peak_kb_;
    last_peak_kb_ = peak_now;
    records.push_back(std::move(record));
  }
  std::vector<bench::CoreBenchRecord> records;

 private:
  std::int64_t last_peak_kb_ = bench::peak_rss_kb();
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool large = false;
  std::string json_path = "BENCH_core.json";
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--large") {
      large = true;  // adds the 1M-replica run (several GB, minutes)
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = std::string(arg.substr(7));
    } else {
      args.push_back(argv[i]);
    }
  }
  // Smoke mode: one quick pass over every bench — exercises all hot paths
  // (the sanitizer-build check) without paying for stable statistics.
  // The population-scale benches are skipped: at 100k+ replicas even one
  // iteration dominates a sanity pass.
  char min_time_flag[] = "--benchmark_min_time=0.001";
  if (smoke) args.push_back(min_time_flag);
  if (!smoke) RegisterLargeBenches(large);

  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  std::cout << "peak_rss_kb: " << updp2p::bench::peak_rss_kb() << "\n";
  if (!smoke) {
    const auto meta = updp2p::bench::collect_run_meta();
    if (!updp2p::bench::write_core_bench_json(json_path, reporter.records,
                                              meta)) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << json_path << " (" << reporter.records.size()
              << " benchmarks)\n";
  }
  return 0;
}
