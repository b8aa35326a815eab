// The three workloads. Each runs in its own process (one per benchmark
// invocation), takes only the generated inputs from the options, checks
// its outputs and fills the report. See perfbench/README.md.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_sim_wire(const Options& options, Report& report);
void run_cluster_durable(const Options& options, Report& report);
void run_udp_loopback(const Options& options, Report& report);

/// Shows that every correctness check of the benchmark fires when its
/// condition is broken. Returns the number of checks that did NOT fire.
int self_test(const Options& options);

}  // namespace perfbench
