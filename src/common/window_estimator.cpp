#include "common/window_estimator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace domino {

void WindowEstimator::advance(TimePoint now) const {
  if (now < last_seen_) {
    throw std::invalid_argument("WindowEstimator: time went backwards from " +
                                last_seen_.to_string() + " to " + now.to_string());
  }
  last_seen_ = now;
  const TimePoint cutoff = now - window_;
  while (!samples_.empty() && samples_.front().at < cutoff) {
    sorted_.erase(std::lower_bound(sorted_.begin(), sorted_.end(), samples_.front().value));
    samples_.pop_front();
  }
}

void WindowEstimator::add(TimePoint now, Duration value) {
  advance(now);
  samples_.push_back({now, value});
  sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), value), value);
}

std::size_t WindowEstimator::count(TimePoint now) const {
  advance(now);
  return sorted_.size();
}

std::optional<Duration> WindowEstimator::percentile(TimePoint now, double p) const {
  advance(now);
  if (sorted_.empty()) return std::nullopt;
  p = std::clamp(p, 0.0, 100.0);
  std::size_t rank = 0;
  if (p > 0.0) {
    rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted_.size())));
    if (rank > 0) --rank;  // convert 1-based nearest rank to 0-based index
  }
  return sorted_[rank];
}

}  // namespace domino
