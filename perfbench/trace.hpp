// In-memory span tracer for the traced run.
//
// The benchmark records a span around each of its own calls into a module
// (no tracing inside the libraries): a span has a name, a start, an end
// and the span that was open when it began (its parent). Self time is a
// span's duration minus the durations of its children; children nest
// strictly inside their parent, so that is exactly the part of the
// interval no child covers. Spans stay in memory and are written out once,
// when the run ends. Single-threaded: only the driving thread records.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint16_t {
  kSimSetup,          ///< RoundSimulator construction (sim)
  kSimUpdate,         ///< one RoundSimulator::propagate_update (sim)
  kRuntimeRestart,    ///< PeerRuntime construction from disk (runtime+store)
  kRuntimeConstruct,  ///< volatile PeerRuntime construction (runtime)
  kRuntimePoll,       ///< PeerRuntime::poll (runtime)
  kRuntimePublish,    ///< PeerRuntime::publish (runtime)
  kRuntimeSession,    ///< go_online / go_offline (runtime)
  kNetSend,           ///< Transport::send (net)
  kNetDrain,          ///< Transport::drain (net)
  kNetAdvance,        ///< InprocNetwork::advance_to (net)
  kNetOpen,           ///< UdpTransport::open (net)
  kStoreOpen,         ///< ReplicaStore::open (store)
  kStoreReplay,       ///< snapshot import + WAL replay into a node (store)
  kStoreSnapshot,     ///< ReplicaStore::write_snapshot (store)
  kStoreAppend,       ///< ReplicaStore::append_frame (store)
  kCount
};

[[nodiscard]] const char* span_label(SpanName name) noexcept;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;
  SpanName name = SpanName::kCount;
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  /// Spans are recorded only while enabled (a traced run toggles this to
  /// interleave traced and untraced stretches and so measure overhead).
  bool enabled = false;

  [[nodiscard]] std::uint32_t begin(SpanName name);
  void end(std::uint32_t index);

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// Per-name totals with self time (duration minus children).
  [[nodiscard]] std::array<SpanTotals, static_cast<std::size_t>(
                                           SpanName::kCount)>
  totals() const;
  /// Writes the span table (the first `max_rows` spans) and the per-name
  /// totals as tab-separated text. Returns false when the file cannot be
  /// written.
  bool write(const std::string& path, std::size_t max_rows) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// The process-wide tracer the benchmark's call sites record into.
Tracer& tracer();

/// Mean microseconds per recorded `name` span (its self time when
/// `self_time`); 0 when none was recorded.
[[nodiscard]] double span_mean_us(SpanName name, bool self_time);

/// RAII span; free when the tracer is disabled.
class Scope {
 public:
  explicit Scope(SpanName name)
      : index_(tracer().enabled ? tracer().begin(name) : Tracer::kNoParent) {}
  ~Scope() {
    if (index_ != Tracer::kNoParent) tracer().end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint32_t index_;
};

}  // namespace perfbench
