#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <unordered_set>

#include "common/rng.hpp"
#include "gossip/codec.hpp"
#include "gossip/node.hpp"
#include "store/replica_store.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace updp2p;

namespace {

/// Times `fn` over `passes` passes and returns the median nanoseconds of
/// one pass divided by `per_pass` operations.
template <typename Fn>
double ns_per_op(std::size_t per_pass, int passes, Fn&& fn) {
  if (per_pass == 0) return 0.0;
  std::vector<double> samples;
  for (int pass = 0; pass < passes; ++pass) {
    const std::int64_t start = wall_ns();
    fn();
    samples.push_back(static_cast<double>(wall_ns() - start) /
                      static_cast<double>(per_pass));
  }
  return median(samples);
}

std::vector<const FrameCapture::Frame*> all_frames(const FrameCapture& c) {
  std::vector<const FrameCapture::Frame*> out;
  for (const auto* group : {&c.pushes, &c.pull_responses, &c.others}) {
    for (const auto& frame : *group) out.push_back(&frame);
  }
  return out;
}

constexpr int kPasses = 5;

}  // namespace

CodecReplay replay_codec(const FrameCapture& frames,
                         const gossip::GossipConfig& config,
                         std::size_t population, Report& report) {
  CodecReplay out;
  const auto every = all_frames(frames);
  out.frames = every.size();

  // Decode once (untimed) to have payloads to encode.
  std::vector<gossip::GossipPayload> payloads;
  payloads.reserve(every.size());
  std::size_t undecodable = 0;
  for (const auto* frame : every) {
    if (auto payload = gossip::decode(frame->bytes)) {
      payloads.push_back(std::move(*payload));
    } else {
      ++undecodable;
    }
  }
  report.check(undecodable == 0,
               "every captured frame decodes (" + std::to_string(undecodable) +
                   " did not)");

  gossip::WireBytes buffer;
  out.encode_ns = ns_per_op(payloads.size(), kPasses, [&] {
    for (const auto& payload : payloads) gossip::encode_into(payload, buffer);
  });
  std::size_t probes_ok = 0;
  out.probe_ns = ns_per_op(every.size(), kPasses, [&] {
    for (const auto* frame : every) {
      probes_ok += gossip::probe_frame(frame->bytes).has_value() ? 1 : 0;
    }
  });
  common::ChunkedPeerSet list;
  std::size_t pushes_ok = 0;
  out.decode_push_ns = ns_per_op(frames.pushes.size(), kPasses, [&] {
    for (const auto& frame : frames.pushes) {
      pushes_ok += gossip::decode_push_into(frame.bytes, list).has_value();
    }
  });
  std::size_t pulls_ok = 0;
  out.decode_pull_ns = ns_per_op(frames.pull_responses.size(), kPasses, [&] {
    for (const auto& frame : frames.pull_responses) {
      pulls_ok += gossip::decode(frame.bytes).has_value() ? 1 : 0;
    }
  });
  report.check(probes_ok == every.size() * kPasses &&
                   pushes_ok == frames.pushes.size() * kPasses &&
                   pulls_ok == frames.pull_responses.size() * kPasses,
               "codec replay: every probe and decode succeeds");

  // Node replay: each push frame in arrival order, first to a node that has
  // not seen its version (first receipt), then again (duplicate). A fresh
  // node per pass keeps the passes identical.
  std::vector<common::PeerId> view;
  for (std::uint32_t i = 0; i < population; ++i) view.emplace_back(i);
  const common::PeerId self(static_cast<std::uint32_t>(population));
  std::vector<double> first_samples, dup_samples;
  std::size_t rejected = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    gossip::ReplicaNode node(self, config, common::StreamRng(0xfeed, pass));
    node.bootstrap(view);
    std::vector<gossip::OutboundMessage> reactions;
    std::int64_t first_ns = 0, dup_ns = 0;
    std::size_t firsts = 0, dups = 0;
    common::Round round = 0;
    for (const auto& frame : frames.pushes) {
      const auto probe = gossip::probe_frame(frame.bytes);
      if (!probe) continue;
      const bool first = !node.knows_version(probe->version);
      ++round;
      for (int copy = 0; copy < (first ? 2 : 1); ++copy) {
        reactions.clear();
        const bool is_first = first && copy == 0;
        const std::int64_t start = wall_ns();
        const bool ok = node.handle_frame(frame.from, frame.bytes, round,
                                          reactions);
        const std::int64_t spent = wall_ns() - start;
        if (!ok) ++rejected;
        if (is_first) {
          first_ns += spent;
          ++firsts;
        } else {
          dup_ns += spent;
          ++dups;
        }
      }
    }
    if (firsts > 0) {
      first_samples.push_back(static_cast<double>(first_ns) /
                              static_cast<double>(firsts));
    }
    if (dups > 0) {
      dup_samples.push_back(static_cast<double>(dup_ns) /
                            static_cast<double>(dups));
    }
  }
  report.check(rejected == 0, "node replay: handle_frame accepts every frame");
  out.handle_first_ns = median(first_samples);
  out.handle_dup_ns = median(dup_samples);
  return out;
}

double replay_store_appends(const FrameCapture& frames, const std::string& dir,
                            Report& report) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  store::StoreConfig config;
  config.data_dir = dir;
  config.snapshot_every_records = 0;  // appends only: snapshots are timed apart
  std::string error;
  auto opened = store::ReplicaStore::open(config, &error);
  report.check(opened.has_value(), "standalone store opens: " + error);
  if (!opened) return 0.0;

  std::vector<const FrameCapture::Frame*> firsts;
  std::unordered_set<version::VersionId> seen;
  for (const auto& frame : frames.pushes) {
    const auto probe = gossip::probe_frame(frame.bytes);
    if (probe && seen.insert(probe->version).second) firsts.push_back(&frame);
  }
  for (const auto& frame : frames.pull_responses) firsts.push_back(&frame);

  std::size_t failures = 0;
  const double us = ns_per_op(firsts.size(), kPasses, [&] {
    for (const auto* frame : firsts) {
      const Scope span(SpanName::kStoreAppend);
      if (!opened->append_frame(frame->from, 0, frame->bytes)) ++failures;
    }
  }) / 1000.0;
  report.check(failures == 0, "standalone store: every append succeeds");
  std::filesystem::remove_all(dir);
  return us;
}

void report_runtime_layers(Report& report,
                           const runtime::RuntimeStats& totals,
                           double pending_retries_peak, double updates) {
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  report.layer("runtime.retransmit_frac",
               ratio(static_cast<double>(totals.retransmits),
                     static_cast<double>(totals.datagrams_out)),
               "ratio");
  report.layer("runtime.retry_cancel_frac",
               ratio(static_cast<double>(totals.retries_cancelled),
                     static_cast<double>(totals.retries_armed)),
               "ratio");
  report.layer("runtime.retries_exhausted",
               ratio(static_cast<double>(totals.retries_exhausted), updates),
               "count");
  report.layer("runtime.pending_retries_peak", pending_retries_peak, "count");
}

void report_net_layers(Report& report, const NetCounters& counters,
                       const net::TransportStats& transport_totals) {
  report.layer("net.send_us", span_mean_us(SpanName::kNetSend, false), "us");
  report.layer("net.drain_us", span_mean_us(SpanName::kNetDrain, false), "us");
  report.layer("net.datagrams_per_drain",
               counters.drains == 0
                   ? 0.0
                   : static_cast<double>(counters.datagrams_drained) /
                         static_cast<double>(counters.drains),
               "count");
  report.layer("net.empty_drain_frac",
               counters.drains == 0
                   ? 0.0
                   : static_cast<double>(counters.empty_drains) /
                         static_cast<double>(counters.drains),
               "ratio");
  report.layer("net.send_errors",
               static_cast<double>(transport_totals.send_errors +
                                   transport_totals.send_no_route +
                                   transport_totals.send_short_writes),
               "count");
  report.layer("net.frames_rejected",
               static_cast<double>(transport_totals.frames_rejected), "count");
  report.layer("runtime.poll_self_us", span_mean_us(SpanName::kRuntimePoll, true),
               "us");
}

void GossipTotals::add(const gossip::NodeStats& stats) {
  pushes_received += static_cast<double>(stats.pushes_received);
  duplicate_pushes += static_cast<double>(stats.duplicate_pushes);
  learned_push += static_cast<double>(stats.updates_learned_push);
  learned_pull += static_cast<double>(stats.updates_learned_pull);
}

GossipTotals GossipTotals::operator-(const GossipTotals& other) const {
  return GossipTotals{pushes_received - other.pushes_received,
                      duplicate_pushes - other.duplicate_pushes,
                      learned_push - other.learned_push,
                      learned_pull - other.learned_pull};
}

void report_gossip_ratios(Report& report, const GossipTotals& delta) {
  report.layer("gossip.dup_frac",
               delta.pushes_received > 0.0
                   ? delta.duplicate_pushes / delta.pushes_received
                   : 0.0,
               "ratio");
  const double learned = delta.learned_push + delta.learned_pull;
  report.layer("gossip.learned_pull_frac",
               learned > 0.0 ? delta.learned_pull / learned : 0.0, "ratio");
}

void report_codec(Report& report, const CodecReplay& replay) {
  report.layer("codec.encode_ns", replay.encode_ns, "ns");
  report.layer("codec.probe_ns", replay.probe_ns, "ns");
  report.layer("codec.decode_push_ns", replay.decode_push_ns, "ns");
  report.layer("codec.decode_pull_ns", replay.decode_pull_ns, "ns");
  report.layer("gossip.handle_frame_first_ns", replay.handle_first_ns, "ns");
  report.layer("gossip.handle_frame_dup_ns", replay.handle_dup_ns, "ns");
  report.note("replayed_frames", std::to_string(replay.frames));
}

void report_trace(Report& report, const Options& options, double traced_median,
                  double untraced_median) {
  std::filesystem::create_directories(options.work_dir);
  const std::string path = options.work_dir + "/trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".tsv";
  report.check(tracer().write(path, 200'000), "trace file is writable");
  report.note("trace_file", path);
  report.layer("trace.spans", static_cast<double>(tracer().size()), "count");
  report.layer("trace.overhead_frac",
               untraced_median > 0.0 ? traced_median / untraced_median - 1.0
                                     : 0.0,
               "ratio");
}

namespace {
struct LayerSpec {
  const char* name;
  const char* unit;
};
constexpr LayerSpec kLayers[] = {
    {"sim.round_ms", "ms"},
    {"sim.shard_speedup", "ratio"},
    {"sim.update_ms_drift", "ratio"},
    {"sim.bus_to_offline_frac", "ratio"},
    {"sim.msgs_per_update_q1", "count"},
    {"sim.msgs_per_update_q4", "count"},
    {"sim.bytes_per_update_q1", "B"},
    {"sim.bytes_per_update_q4", "B"},
    {"codec.share", "ratio"},
    {"codec.encode_ns", "ns"},
    {"codec.probe_ns", "ns"},
    {"codec.decode_push_ns", "ns"},
    {"codec.decode_pull_ns", "ns"},
    {"gossip.handle_frame_first_ns", "ns"},
    {"gossip.handle_frame_dup_ns", "ns"},
    {"gossip.dup_frac", "ratio"},
    {"gossip.learned_pull_frac", "ratio"},
    {"net.send_us", "us"},
    {"net.drain_us", "us"},
    {"net.datagrams_per_drain", "count"},
    {"net.empty_drain_frac", "ratio"},
    {"net.advance_us", "us"},
    {"net.send_errors", "count"},
    {"net.frames_rejected", "count"},
    {"net.loopback_lost", "count"},
    {"runtime.poll_self_us", "us"},
    {"runtime.retransmit_frac", "ratio"},
    {"runtime.retry_cancel_frac", "ratio"},
    {"runtime.retries_exhausted", "count"},
    {"runtime.pending_retries_peak", "count"},
    {"store.appends_per_update", "count"},
    {"store.append_us", "us"},
    {"store.snapshots_per_update", "count"},
    {"store.snapshot_ms", "ms"},
    {"store.open_ms", "ms"},
    {"store.replay_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
};
}  // namespace

void fill_missing_layers(Report& report) {
  std::vector<Metric> ordered;
  std::string idle;
  for (const LayerSpec& spec : kLayers) {
    const auto it = std::find_if(
        report.layers().begin(), report.layers().end(),
        [&](const Metric& m) { return m.name == spec.name; });
    if (it != report.layers().end()) {
      ordered.push_back(*it);
    } else {
      ordered.push_back({spec.name, 0.0, spec.unit});
      idle += idle.empty() ? spec.name : std::string(" ") + spec.name;
    }
  }
  for (const Metric& m : report.layers()) {
    report.check(std::any_of(std::begin(kLayers), std::end(kLayers),
                             [&](const LayerSpec& s) { return m.name == s.name; }),
                 "per-layer metric " + m.name + " is declared");
  }
  report.layers() = std::move(ordered);
  if (!idle.empty()) report.note("layers_idle_on_this_workload (0)", idle);
}

}  // namespace perfbench
