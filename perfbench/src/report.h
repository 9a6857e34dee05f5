// The result of one benchmark invocation and its one-line JSON form.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
/// every value printed at full precision.
[[nodiscard]] std::string to_json(const Report& report);

/// Untraced runs through harness::run_protocol: the end-to-end metrics.
[[nodiscard]] Report run_end_to_end(const Workload& workload, const std::string& repo_root,
                                    std::uint64_t seed, double seconds);

/// The benchmark-side traced assembly plus the public-counter runs: the
/// per-layer metrics. The traced cycle repeats while `seconds` last.
[[nodiscard]] Report run_traced(const Workload& workload, const std::string& repo_root,
                                double seconds);

}  // namespace perfbench
