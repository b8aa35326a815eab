// perfbench — the repo benchmark's binary (built and run by
// perfbench/run.py).
//
//   perfbench --workload <sim_wire|cluster_durable|udp_loopback>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//   perfbench --self-test [--work-dir <dir>]
//
// Prints notes (provenance, sample counts), a metric table and, as the
// last line, one JSON object {correct, attempted, failed, metrics}.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <sim_wire|cluster_durable|"
               "udp_loopback> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n"
               "       perfbench --self-test [--work-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool self_test = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() != "0";
      } else if (arg == "--work-dir") {
        options.work_dir = value();
      } else if (arg == "--self-test") {
        self_test = true;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      return usage();
    }
  }
  if (self_test) return perfbench::self_test(options) == 0 ? 0 : 1;
  if (!have_workload || options.seconds <= 0.0) return usage();

  perfbench::Report report;
  report.note("workload", options.workload);
  report.note("seed", std::to_string(options.seed));
  report.note("trace", options.trace ? "1" : "0");
  try {
    if (options.workload == "sim_wire") {
      perfbench::run_sim_wire(options, report);
    } else if (options.workload == "cluster_durable") {
      perfbench::run_cluster_durable(options, report);
    } else if (options.workload == "udp_loopback") {
      perfbench::run_udp_loopback(options, report);
    } else {
      std::cerr << "perfbench: unknown workload " << options.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  if (options.trace) perfbench::fill_missing_layers(report);
  report.print(options.trace);
  // A failed correctness check fails the run, result line or not.
  return report.correct() ? 0 : 1;
}
