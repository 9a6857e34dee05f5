// Order statistics and accounting helpers shared by the end-to-end and
// traced runs (and checked by selftest.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.h"

namespace perfbench {

/// `p`-th percentile (nearest rank, as StatAccumulator defines it), or 0 for
/// an empty sample, where StatAccumulator would throw.
[[nodiscard]] double percentile_or_zero(const domino::StatAccumulator& acc, double p);

/// Samples strictly above the p-th percentile of `acc`.
[[nodiscard]] std::size_t samples_beyond(const domino::StatAccumulator& acc, double p);

/// The p-th percentile, or nothing when fewer than ten samples lie beyond
/// it (the estimate would rest on a handful of outliers).
[[nodiscard]] std::optional<double> supported_percentile(const domino::StatAccumulator& acc,
                                                         double p);

/// Median and quartiles, with the same definition as Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method) so the
/// benchmark and steady.py agree. A single value is its own quartiles.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);
[[nodiscard]] double median(std::vector<double> values);

/// Longest time without a commit completion seen by any one client inside
/// [window_start, window_end] (all in ms). `commit_times[c]` holds client c's
/// commit completion times; the gaps from the window start to the first
/// commit and from the last commit to the window end count too, so a client
/// that stalls until the end (or never commits) shows its whole stall.
[[nodiscard]] double outage_ms(const std::vector<std::vector<double>>& commit_times,
                               double window_start, double window_end);

/// Failure accounting across the runs of one invocation. A request fails
/// if it is abandoned or still in flight at the end of its run; every
/// request of a run that fails its correctness check fails; a run that
/// throws fails every request it was due to submit.
struct FailureTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add_run(std::uint64_t submitted, std::uint64_t abandoned, std::uint64_t inflight_end,
               bool check_passed);
  void add_throw(std::uint64_t due);
  /// Share of attempted requests that were served: 1 - failed/attempted.
  [[nodiscard]] double served_frac() const;
};

}  // namespace perfbench
