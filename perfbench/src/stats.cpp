#include "stats.h"

#include <algorithm>

namespace perfbench {

double percentile_or_zero(const domino::StatAccumulator& acc, double p) {
  return acc.empty() ? 0.0 : acc.percentile(p);
}

std::size_t samples_beyond(const domino::StatAccumulator& acc, double p) {
  if (acc.empty()) return 0;
  const std::vector<double>& sorted = acc.sorted_values();
  return static_cast<std::size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), acc.percentile(p)));
}

std::optional<double> supported_percentile(const domino::StatAccumulator& acc, double p) {
  if (samples_beyond(acc, p) < 10) return std::nullopt;
  return acc.percentile(p);
}

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  const double mid = n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  // statistics.quantiles(method="exclusive"): cut point i of 4 sits at
  // position i*(n+1)/4 (1-based), clamped to [1, n-1], linearly interpolated.
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  return {cut(1), mid, cut(3)};
}

double median(std::vector<double> values) { return quartiles(std::move(values)).median; }

double outage_ms(const std::vector<std::vector<double>>& commit_times, double window_start,
                 double window_end) {
  double worst = 0.0;
  for (const auto& times : commit_times) {
    double last = window_start;
    for (const double t : times) {
      if (t < window_start || t > window_end) continue;
      worst = std::max(worst, t - last);
      last = t;
    }
    worst = std::max(worst, window_end - last);
  }
  return worst;
}

void FailureTally::add_run(std::uint64_t submitted, std::uint64_t abandoned,
                           std::uint64_t inflight_end, bool check_passed) {
  attempted += submitted;
  failed += check_passed ? abandoned + inflight_end : submitted;
}

void FailureTally::add_throw(std::uint64_t due) {
  attempted += due;
  failed += due;
}

double FailureTally::served_frac() const {
  if (attempted == 0) return 0.0;
  return 1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace perfbench
