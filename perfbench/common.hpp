// Shared plumbing of the benchmark: the report every workload fills, the
// statistics it reports, process resource probes and run provenance.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for store files and the trace dump.
  std::string work_dir = ".bench_build/run";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. End-to-end metrics come from untraced
/// runs, per-layer metrics from traced runs; `notes` are the human-readable
/// lines printed ahead of the result (provenance, sample counts, checks).
class Report {
 public:
  void end_to_end(std::string name, double value, std::string unit) {
    e2e_.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layer_.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    notes_.emplace_back(std::move(key), std::move(value));
  }
  /// Records a correctness check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }
  [[nodiscard]] std::vector<Metric>& layers() noexcept { return layer_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }
  /// Prints the notes, a metric table and, as the last line, the JSON
  /// result object with the metric set selected by `traced`.
  void print(bool traced) const;

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> failures_;
};

/// What a workload's set-up and timed phase measured: the inputs of the
/// end-to-end metrics, which every workload defines the same way.
struct Measured {
  std::vector<double> setup_s;          ///< one per set-up repetition
  std::vector<double> update_ms;        ///< per update (see README)
  std::vector<double> rounds_to_aware;  ///< updates that reached the target
  std::vector<double> aware_frac;       ///< F_aware when each window ended
  std::uint64_t attempted = 0;          ///< updates published
  std::uint64_t missed = 0;             ///< windows that ended short of target
  double wall_s = 0.0;                  ///< timed phase
  double cpu_s = 0.0;                   ///< timed phase, user + sys
  double messages = 0.0;                ///< timed phase
  double bytes = 0.0;                   ///< timed phase
};

/// Adds every end-to-end metric, the sample-count notes and the
/// attempted/failed counts.
void report_end_to_end(Report& report, const Measured& m);

// --- statistics -------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// The highest percentile that still has at least ten samples beyond it:
/// with n samples that is the value of rank n - 10 (1-based) in sorted
/// order. `percentile` receives that percentile (100·(n-10)/n).
[[nodiscard]] double tail(std::vector<double> values, double* percentile);
[[nodiscard]] double mean(const std::vector<double>& values);

// --- process probes ---------------------------------------------------------

/// Monotonic wall clock in seconds.
[[nodiscard]] double wall_now();
/// Monotonic wall clock in nanoseconds.
[[nodiscard]] std::int64_t wall_ns();
/// User + system CPU seconds of the whole process (getrusage).
[[nodiscard]] double cpu_seconds();
/// Peak resident set size of the process in MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Run provenance: CPU model, usable threads, build type, source identity.
void add_provenance(Report& report, unsigned threads_at_work);

/// Deterministic 64-bit mix of the workload seed with a purpose tag, so
/// every stream a workload draws from is a pure function of --seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t purpose);

std::string format_double(double value);

}  // namespace perfbench
