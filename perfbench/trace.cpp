#include "trace.hpp"

#include <algorithm>
#include <fstream>

#include "common.hpp"

namespace perfbench {

const char* span_label(SpanName name) noexcept {
  switch (name) {
    case SpanName::kSimSetup: return "sim.setup";
    case SpanName::kSimUpdate: return "sim.propagate_update";
    case SpanName::kRuntimeRestart: return "runtime.restart";
    case SpanName::kRuntimeConstruct: return "runtime.construct";
    case SpanName::kRuntimePoll: return "runtime.poll";
    case SpanName::kRuntimePublish: return "runtime.publish";
    case SpanName::kRuntimeSession: return "runtime.session";
    case SpanName::kNetSend: return "net.send";
    case SpanName::kNetDrain: return "net.drain";
    case SpanName::kNetAdvance: return "net.advance_to";
    case SpanName::kNetOpen: return "net.udp_open";
    case SpanName::kStoreOpen: return "store.open";
    case SpanName::kStoreReplay: return "store.replay";
    case SpanName::kStoreSnapshot: return "store.write_snapshot";
    case SpanName::kStoreAppend: return "store.append_frame";
    case SpanName::kCount: break;
  }
  return "?";
}

std::uint32_t Tracer::begin(SpanName name) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  Span span;
  span.name = name;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.start_ns = wall_ns();
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void Tracer::end(std::uint32_t index) {
  spans_[index].end_ns = wall_ns();
  // Scopes close in LIFO order, so the span ending is the innermost open.
  open_.pop_back();
}

std::array<SpanTotals, static_cast<std::size_t>(SpanName::kCount)>
Tracer::totals() const {
  std::array<SpanTotals, static_cast<std::size_t>(SpanName::kCount)> out{};
  for (const Span& span : spans_) {
    const std::int64_t duration = span.end_ns - span.start_ns;
    SpanTotals& mine = out[static_cast<std::size_t>(span.name)];
    ++mine.count;
    mine.total_ns += duration;
    mine.self_ns += duration;
    if (span.parent != kNoParent) {
      out[static_cast<std::size_t>(spans_[span.parent].name)].self_ns -=
          duration;
    }
  }
  return out;
}

bool Tracer::write(const std::string& path, std::size_t max_rows) const {
  std::ofstream file(path);
  if (!file) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  file << "# totals: name\tcount\ttotal_ns\tself_ns\n";
  const auto sums = totals();
  for (std::size_t i = 0; i < sums.size(); ++i) {
    if (sums[i].count == 0) continue;
    file << "total\t" << span_label(static_cast<SpanName>(i)) << "\t"
         << sums[i].count << "\t" << sums[i].total_ns << "\t"
         << sums[i].self_ns << "\n";
  }
  file << "# spans (" << std::min(max_rows, spans_.size()) << " of "
       << spans_.size()
       << "): index\tname\tstart_ns\tend_ns\tparent (-1 = root)\n";
  for (std::size_t i = 0; i < spans_.size() && i < max_rows; ++i) {
    const Span& span = spans_[i];
    file << i << "\t" << span_label(span.name) << "\t"
         << span.start_ns - origin << "\t" << span.end_ns - origin << "\t"
         << (span.parent == kNoParent ? -1
                                      : static_cast<std::int64_t>(span.parent))
         << "\n";
  }
  return static_cast<bool>(file);
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

double span_mean_us(SpanName name, bool self_time) {
  const SpanTotals t = tracer().totals()[static_cast<std::size_t>(name)];
  if (t.count == 0) return 0.0;
  return static_cast<double>(self_time ? t.self_ns : t.total_ns) / 1e3 /
         static_cast<double>(t.count);
}

}  // namespace perfbench
