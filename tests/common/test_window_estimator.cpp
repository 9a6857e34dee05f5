#include "common/window_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace domino {
namespace {

TimePoint at_ms(std::int64_t ms) { return TimePoint::epoch() + milliseconds(ms); }

TEST(WindowEstimator, EmptyReturnsNullopt) {
  WindowEstimator w(seconds(1));
  EXPECT_FALSE(w.percentile(at_ms(0), 95).has_value());
  EXPECT_TRUE(w.empty(at_ms(0)));
}

TEST(WindowEstimator, SingleSampleAnyPercentile) {
  WindowEstimator w(seconds(1));
  w.add(at_ms(0), milliseconds(10));
  EXPECT_EQ(*w.percentile(at_ms(0), 0), milliseconds(10));
  EXPECT_EQ(*w.percentile(at_ms(0), 50), milliseconds(10));
  EXPECT_EQ(*w.percentile(at_ms(0), 100), milliseconds(10));
}

TEST(WindowEstimator, NearestRankPercentiles) {
  WindowEstimator w(seconds(10));
  for (int i = 1; i <= 10; ++i) w.add(at_ms(i), milliseconds(i));
  // Nearest-rank: p50 of 10 samples -> 5th smallest.
  EXPECT_EQ(*w.percentile(at_ms(10), 50), milliseconds(5));
  EXPECT_EQ(*w.percentile(at_ms(10), 90), milliseconds(9));
  EXPECT_EQ(*w.percentile(at_ms(10), 100), milliseconds(10));
  EXPECT_EQ(*w.percentile(at_ms(10), 0), milliseconds(1));
}

TEST(WindowEstimator, EvictsOldSamples) {
  WindowEstimator w(milliseconds(100));
  w.add(at_ms(0), milliseconds(1));
  w.add(at_ms(50), milliseconds(2));
  w.add(at_ms(200), milliseconds(3));
  // At t=200 the window is [100, 200]; only samples 2? No: sample at 50 is
  // older than 100ms, sample at 200 remains; count should be 1.
  EXPECT_EQ(w.count(at_ms(200)), 1u);
  EXPECT_EQ(*w.percentile(at_ms(200), 95), milliseconds(3));
}

TEST(WindowEstimator, WindowBoundaryInclusive) {
  WindowEstimator w(milliseconds(100));
  w.add(at_ms(100), milliseconds(1));
  w.add(at_ms(200), milliseconds(2));
  // Cutoff at t=200 is exactly 100; the sample at 100 is still inside.
  EXPECT_EQ(w.count(at_ms(200)), 2u);
}

TEST(WindowEstimator, QueryLaterThanLastInsert) {
  WindowEstimator w(milliseconds(100));
  w.add(at_ms(0), milliseconds(5));
  // Querying far past the window finds nothing.
  EXPECT_FALSE(w.percentile(at_ms(500), 95).has_value());
  EXPECT_EQ(w.count(at_ms(500)), 0u);
}

TEST(WindowEstimator, P95PicksHighSample) {
  WindowEstimator w(seconds(10));
  for (int i = 0; i < 100; ++i) w.add(at_ms(i), milliseconds(10));
  w.add(at_ms(100), milliseconds(50));  // one outlier among 101
  EXPECT_EQ(*w.percentile(at_ms(100), 95), milliseconds(10));
  EXPECT_EQ(*w.percentile(at_ms(100), 100), milliseconds(50));
}

TEST(WindowEstimator, SetWindowShrinks) {
  WindowEstimator w(seconds(10));
  w.add(at_ms(0), milliseconds(1));
  w.add(at_ms(900), milliseconds(2));
  w.set_window(milliseconds(500));
  EXPECT_EQ(w.count(at_ms(900)), 1u);
}

TEST(WindowEstimator, NegativeDurationsSupported) {
  // OWD measurements can be negative under clock skew.
  WindowEstimator w(seconds(1));
  w.add(at_ms(0), milliseconds(-5));
  w.add(at_ms(1), milliseconds(5));
  EXPECT_EQ(*w.percentile(at_ms(1), 0), milliseconds(-5));
  EXPECT_EQ(*w.percentile(at_ms(1), 100), milliseconds(5));
}

// The estimator's former read path, kept as the oracle: adds evict samples
// older than the window, and every read copies the in-window samples and
// runs nth_element at the nearest rank.
class ReferenceEstimator {
 public:
  explicit ReferenceEstimator(Duration window) : window_(window) {}
  void set_window(Duration w) { window_ = w; }

  void add(TimePoint now, Duration value) {
    samples_.push_back({now, value});
    const TimePoint cutoff = now - window_;
    while (!samples_.empty() && samples_.front().first < cutoff) samples_.pop_front();
  }

  [[nodiscard]] std::vector<Duration> in_window(TimePoint now) const {
    const TimePoint cutoff = now - window_;
    std::vector<Duration> vals;
    for (auto it = samples_.rbegin(); it != samples_.rend() && it->first >= cutoff; ++it) {
      vals.push_back(it->second);
    }
    return vals;
  }

  [[nodiscard]] std::optional<Duration> percentile(TimePoint now, double p) const {
    std::vector<Duration> vals = in_window(now);
    if (vals.empty()) return std::nullopt;
    p = std::clamp(p, 0.0, 100.0);
    std::size_t rank = 0;
    if (p > 0.0) {
      rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(vals.size())));
      if (rank > 0) --rank;
    }
    std::nth_element(vals.begin(), vals.begin() + static_cast<std::ptrdiff_t>(rank), vals.end());
    return vals[rank];
  }

 private:
  Duration window_;
  std::deque<std::pair<TimePoint, Duration>> samples_;
};

TEST(WindowEstimator, MatchesCopyAndSelectReference) {
  const double kPercentiles[] = {0, 0.5, 50, 95, 99.9, 100};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Duration window = milliseconds(rng.uniform_i64(5, 60));
    WindowEstimator w(window);
    ReferenceEstimator ref(window);
    // Whole-millisecond times and a whole-millisecond window put many
    // samples exactly on the inclusive cutoff.
    TimePoint now = at_ms(rng.uniform_i64(-20, 20));
    std::vector<TimePoint> added;
    std::size_t boundary_hits = 0;
    const int shrink_step = static_cast<int>(rng.uniform_i64(500, 1500));
    for (int step = 0; step < 2000; ++step) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
      if (step == shrink_step) {
        w.set_window(window / 3);
        ref.set_window(window / 3);
      }
      // Zero advances give runs of equal timestamps.
      now += milliseconds(rng.uniform_i64(0, 3));
      if (rng.chance(0.4)) {
        // A small value range with negatives makes duplicates common.
        const Duration v = milliseconds(rng.uniform_i64(-4, 6));
        w.add(now, v);
        ref.add(now, v);
        added.push_back(now);
      }
      const TimePoint cutoff = now - w.window();
      boundary_hits += static_cast<std::size_t>(
          std::count(added.begin(), added.end(), cutoff));
      ASSERT_EQ(w.count(now), ref.in_window(now).size());
      for (double p : kPercentiles) {
        ASSERT_EQ(w.percentile(now, p), ref.percentile(now, p)) << "p=" << p;
      }
      ASSERT_EQ(w.empty(now), ref.in_window(now).empty());
    }
    EXPECT_GT(boundary_hits, 0u) << "seed " << seed;
  }
}

TEST(WindowEstimator, EarlierTimeThrows) {
  WindowEstimator w(seconds(1));
  w.add(at_ms(10), milliseconds(1));
  EXPECT_THROW(w.add(at_ms(9), milliseconds(1)), std::invalid_argument);
  EXPECT_THROW((void)w.percentile(at_ms(9), 50), std::invalid_argument);
  EXPECT_THROW((void)w.count(at_ms(9)), std::invalid_argument);
  // Equal times are allowed; a query moves the clock forward too.
  w.add(at_ms(10), milliseconds(2));
  EXPECT_EQ(*w.percentile(at_ms(20), 100), milliseconds(2));
  EXPECT_THROW(w.add(at_ms(15), milliseconds(3)), std::invalid_argument);
  EXPECT_EQ(w.count(at_ms(20)), 2u);  // the rejected calls changed nothing
}

}  // namespace
}  // namespace domino
