// Shared output helpers for the reproduction benches. Every bench binary
// prints (1) the experiment's parameters, (2) the series/rows of the paper
// figure or table it regenerates, and (3) where applicable the value the
// paper reports, so EXPERIMENTS.md can be filled by reading bench output.
#pragma once

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"

namespace updp2p::bench {

inline void print_banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n================================================================\n"
            << title << "\n" << paper_ref
            << "\n================================================================\n";
}

/// Renders one trajectory per row: label, headline numbers, then the
/// discrete (F_aware -> messages/R_on0) marks like the paper's plot points.
inline void print_series(const std::string& title,
                         const std::vector<common::Series>& series_list) {
  common::TextTable table(title);
  table.header({"configuration", "final msgs/R_on[0]", "final F_aware",
                "points (F_aware->msgs/R_on[0])"});
  for (const auto& series : series_list) {
    table.row()
        .cell(series.label)
        .cell(series.empty() ? 0.0 : series.final_y(), 3)
        .cell(series.empty() ? 0.0 : series.final_x(), 4)
        .cell(common::format_trajectory(series.x, series.y, 2));
  }
  table.print(std::cout);
}

// --- machine-readable microbench output ------------------------------------
//
// micro_core emits BENCH_core.json so performance runs can be diffed by
// tooling instead of eyeballed: one record per benchmark (ns/op, RSS delta,
// plus — where the bench counts protocol traffic — messages/sec), run
// metadata (git SHA, CPU, threads, timestamp), and the process peak RSS.

/// One benchmark's result in BENCH_core.json.
struct CoreBenchRecord {
  std::string name;
  double ns_per_op = 0.0;
  double messages_per_sec = 0.0;  ///< 0 when the bench counts no messages
  /// Mean wire bytes per protocol message (0 when the bench counts no
  /// traffic). With the chunked flooding-list codec this is the headline
  /// bandwidth number: it shrinks when lists compress, even where msg
  /// counts stay fixed. Methodology in docs/benchmarks.md.
  double bytes_per_msg = 0.0;
  /// Worker threads this benchmark really ran with: min(shard_threads,
  /// usable threads) for the simulator benches, 1 for single-threaded
  /// ones — NOT the machine's thread count, which lives in the meta block.
  unsigned threads = 1;
  /// Growth of the process peak RSS while this benchmark ran. Peak RSS is
  /// monotone, so the delta attributes footprint growth to the benchmark
  /// that caused it (0 for benches running inside already-paid memory).
  std::int64_t rss_delta_kb = 0;
};

/// Peak resident set size of this process in kilobytes (Linux ru_maxrss).
inline std::int64_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::int64_t>(usage.ru_maxrss);
}

/// Current (not peak) resident set size in kilobytes, from /proc/self/statm;
/// 0 when the file is unavailable (non-Linux).
inline std::int64_t current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0, pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0;
  const long page_kb = sysconf(_SC_PAGESIZE) / 1024;
  return static_cast<std::int64_t>(pages_resident) * page_kb;
}

/// Provenance of one benchmark run: enough to tell two BENCH_core.json
/// files apart without relying on the file's git history.
struct BenchRunMeta {
  std::string git_sha = "unknown";
  std::string cpu_model = "unknown";
  /// Hardware threads the machine is configured with. Deliberately NOT
  /// std::thread::hardware_concurrency(): that call respects the process
  /// CPU affinity mask, so a run pinned to one core used to report
  /// hardware_threads: 1 and made scaling rows unreadable.
  unsigned hardware_threads = 0;
  /// CPUs this process was actually allowed to run on (affinity mask),
  /// which is what bounds the parallel benches' real concurrency.
  unsigned usable_threads = 0;
  std::string timestamp_utc;  ///< ISO 8601, UTC
};

/// CPUs this process may run on (its affinity mask), falling back to
/// std::thread::hardware_concurrency(); at least 1.
inline unsigned usable_threads() {
  unsigned usable = 0;
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  if (sched_getaffinity(0, sizeof(affinity), &affinity) == 0) {
    usable = static_cast<unsigned>(CPU_COUNT(&affinity));
  }
  if (usable == 0) usable = std::thread::hardware_concurrency();
  return usable == 0 ? 1 : usable;
}

/// Best-effort collection of run metadata (every field degrades to a
/// placeholder rather than failing).
inline BenchRunMeta collect_run_meta() {
  BenchRunMeta meta;
  const long configured = sysconf(_SC_NPROCESSORS_CONF);
  meta.hardware_threads = configured > 0
                              ? static_cast<unsigned>(configured)
                              : std::thread::hardware_concurrency();
  meta.usable_threads = usable_threads();

  if (FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buffer[64] = {};
    if (std::fgets(buffer, sizeof(buffer), pipe)) {
      std::string sha(buffer);
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
        sha.pop_back();
      }
      if (sha.size() == 40) meta.git_sha = sha;
    }
    ::pclose(pipe);
  }

  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto model = line.substr(colon + 1);
        const auto start = model.find_first_not_of(' ');
        meta.cpu_model = start == std::string::npos ? model
                                                    : model.substr(start);
      }
      break;
    }
  }

  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  if (gmtime_r(&now, &utc)) {
    char stamp[32];
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
    meta.timestamp_utc = stamp;
  }
  return meta;
}

/// Minimal JSON string escaping (quotes and backslashes; metadata strings
/// contain nothing wilder).
inline std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Writes `records` plus run metadata and the process peak RSS as JSON to
/// `path`. Returns false when the file cannot be written.
inline bool write_core_bench_json(const std::string& path,
                                  const std::vector<CoreBenchRecord>& records,
                                  const BenchRunMeta& meta) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"meta\": {\n"
      << "    \"git_sha\": \"" << json_escape(meta.git_sha) << "\",\n"
      << "    \"cpu_model\": \"" << json_escape(meta.cpu_model) << "\",\n"
      << "    \"hardware_threads\": " << meta.hardware_threads << ",\n"
      << "    \"usable_threads\": " << meta.usable_threads << ",\n"
      << "    \"timestamp_utc\": \"" << json_escape(meta.timestamp_utc)
      << "\"\n  },\n";
  out << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const CoreBenchRecord& record = records[i];
    out << "    {\"name\": \"" << json_escape(record.name)
        << "\", \"ns_per_op\": " << record.ns_per_op
        << ", \"messages_per_sec\": " << record.messages_per_sec
        << ", \"bytes_per_msg\": " << record.bytes_per_msg
        << ", \"threads\": " << record.threads
        << ", \"rss_delta_kb\": " << record.rss_delta_kb << "}";
    out << (i + 1 < records.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"peak_rss_kb\": " << peak_rss_kb() << "\n}\n";
  return static_cast<bool>(out);
}

}  // namespace updp2p::bench
