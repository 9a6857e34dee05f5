// The benchmark's three Domino workloads, built as harness::Scenario values
// from a workload name, the invocation seed and the repository root (for the
// checked-in WAN trace fixtures).
//
// Every workload is open loop at a fixed per-client rate, single-process and
// single-threaded. One invocation runs a fixed list of scenarios ("cases")
// derived from the seed, so the same seed always simulates the same inputs;
// how many cases a workload runs is part of its definition, never a function
// of wall time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// Scenarios simulated by one invocation, pooled into its virtual-time
  /// metrics; each has its own seed (and, for na5_faults, fault schedule).
  std::vector<domino::harness::Scenario> cases;
  /// True when the scenarios inject faults: requests may then legitimately
  /// fail, and failures are reported as measurements rather than as a broken
  /// benchmark.
  bool faulty = false;
  /// How many of the cases (from the front) the traced run simulates.
  std::size_t traced_cases = 1;
};

/// Build the named workload (globe_wan, cluster_dm or na5_faults) for
/// `seed`; `repo_root` locates bench/traces. Throws std::invalid_argument on
/// an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     const std::string& repo_root);

/// Requests a client set is scheduled to submit over the scenario's load
/// window (warmup + measure). A run that throws counts all of these as
/// failed, since its real submission count is lost with the run.
[[nodiscard]] std::uint64_t due_requests(const domino::harness::Scenario& s);

}  // namespace perfbench
