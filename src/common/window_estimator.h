// Sliding-window percentile estimator.
//
// Domino clients and replicas estimate network delays as "the n-th
// percentile value in the past time period (i.e., window size)" (paper
// Sections 3 and 5.4). This class keeps timestamped samples, evicts those
// older than the window, and answers percentile queries.
//
// Reads vastly outnumber adds (every protocol decision reads several
// estimates; a probe reply adds one sample), so the in-window values are
// kept sorted beside the time-ordered sample queue:
//   - percentile(), count(), empty(): O(1) after eviction, no allocation;
//   - add() and each eviction: O(log w) binary search plus a shift of at
//     most w elements of the sorted vector (w = samples in the window).
//
// Time contract: the `now` passed to add(), percentile(), count() and
// empty() never decreases across calls on one estimator. Every call evicts
// the samples older than `now - window`, so an earlier `now` could no
// longer be answered; a call that breaks the contract throws
// std::invalid_argument (in every build type).
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "common/time.h"

namespace domino {

class WindowEstimator {
 public:
  /// @param window how far back samples are retained, relative to the most
  ///               recent query/insert time.
  explicit WindowEstimator(Duration window) : window_(window) {}

  /// Record a sample observed at time `now`.
  void add(TimePoint now, Duration value);

  /// The p-th percentile (p in [0, 100]) of samples within the window
  /// ending at `now`, or nullopt if the window is empty.
  /// Uses the nearest-rank method: the ceil(p/100 * n)-th smallest sample
  /// (and the smallest sample for p = 0).
  [[nodiscard]] std::optional<Duration> percentile(TimePoint now, double p) const;

  /// Number of samples currently within the window ending at `now`.
  [[nodiscard]] std::size_t count(TimePoint now) const;

  [[nodiscard]] bool empty(TimePoint now) const { return count(now) == 0; }

  [[nodiscard]] Duration window() const { return window_; }
  /// Takes effect at the next call. Samples already evicted stay gone when
  /// the window grows.
  void set_window(Duration w) { window_ = w; }

 private:
  /// Enforces the time contract, then evicts samples older than
  /// `now - window`, keeping `sorted_` in step with `samples_`.
  void advance(TimePoint now) const;

  struct Sample {
    TimePoint at;
    Duration value;
  };

  Duration window_;
  // Eviction is part of every read, so the containers are mutable.
  mutable TimePoint last_seen_{std::numeric_limits<std::int64_t>::min()};
  mutable std::deque<Sample> samples_;   // time order, for eviction
  mutable std::vector<Duration> sorted_;  // the same values, ascending
};

}  // namespace domino
