#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

std::string format_double(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

namespace {
std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}
}  // namespace

void Report::print(bool traced) const {
  for (const auto& [key, value] : notes_) {
    std::cout << "# " << key << ": " << value << "\n";
  }
  for (const std::string& failure : failures_) {
    std::cout << "# CHECK FAILED: " << failure << "\n";
  }
  const std::vector<Metric>& shown = traced ? layer_ : e2e_;
  for (const Metric& m : shown) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-32s %16.6g %s", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << line << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : shown) {
    if (!first) json << ", ";
    first = false;
    json << json_string(m.name) << ": {\"value\": " << format_double(m.value)
         << ", \"unit\": " << json_string(m.unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

void report_end_to_end(Report& report, const Measured& m) {
  const double updates = static_cast<double>(m.attempted);
  double ms_pct = 0.0, rounds_pct = 0.0;
  report.end_to_end("setup_s", median(m.setup_s), "s");
  report.end_to_end("update_ms_mean", mean(m.update_ms), "ms");
  report.end_to_end("update_ms_tail", tail(m.update_ms, &ms_pct), "ms");
  report.end_to_end("msgs_per_s", m.messages / m.wall_s, "1/s");
  report.end_to_end("cpu_us_per_msg", m.cpu_s * 1e6 / m.messages, "us");
  report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
  report.end_to_end("msgs_per_update", m.messages / updates, "count");
  report.end_to_end("bytes_per_update", m.bytes / updates, "B");
  report.end_to_end("rounds_to_aware_p50", median(m.rounds_to_aware),
                    "rounds");
  report.end_to_end("rounds_to_aware_tail", tail(m.rounds_to_aware, &rounds_pct),
                    "rounds");
  report.end_to_end("aware_frac", median(m.aware_frac), "ratio");
  report.end_to_end("reach_frac",
                    static_cast<double>(m.attempted - m.missed) / updates,
                    "ratio");
  const auto samples = [](double percentile, std::size_t n) {
    return format_double(percentile) + " (" + std::to_string(n) + " samples)";
  };
  const auto p90_p99 = [](const std::vector<double>& v) {
    return format_double(quantile(v, 0.9)) + " " +
           format_double(quantile(v, 0.99));
  };
  report.note("timed_updates", std::to_string(m.attempted));
  report.note("update_ms_tail_percentile", samples(ms_pct, m.update_ms.size()));
  report.note("rounds_to_aware_tail_percentile",
              samples(rounds_pct, m.rounds_to_aware.size()));
  report.note("update_ms_p50_p90_p99", format_double(median(m.update_ms)) +
                                         " " + p90_p99(m.update_ms));
  report.note("rounds_to_aware_p90_p99", p90_p99(m.rounds_to_aware));
  report.attempted = m.attempted;
  report.failed = m.missed;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double tail(std::vector<double> values, double* percentile) {
  if (values.empty()) {
    if (percentile != nullptr) *percentile = 0.0;
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // Rank n-10 (1-based) leaves exactly ten samples beyond it; below twenty
  // samples that would fall under the median, which is then reported.
  const std::size_t rank = std::max(n > 10 ? n - 10 : 0, (n + 1) / 2);
  if (percentile != nullptr) {
    *percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  }
  return values[rank - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

namespace {
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto begin = model.find_first_not_of(' ');
    return begin == std::string::npos ? "unknown" : model.substr(begin);
  }
#endif
  return "unknown";
}

unsigned usable_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string env_or(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}
}  // namespace

void add_provenance(Report& report, unsigned threads_at_work) {
  report.note("cpu_model", cpu_model());
  report.note("usable_threads", std::to_string(usable_threads()));
  report.note("threads_at_work", std::to_string(threads_at_work));
  report.note("build_type", PERFBENCH_BUILD_TYPE);
  report.note("git_sha", env_or("PERFBENCH_GIT_SHA", "unknown"));
  report.note("source_sha256", env_or("PERFBENCH_SOURCE_SHA256", "unknown"));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  // splitmix64 over (seed, purpose).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (purpose + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
