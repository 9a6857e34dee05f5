#include "common/zipf.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace domino {
namespace {

std::vector<double> build_cdf(std::uint64_t n, double alpha) {
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
    cdf[k] = acc;
  }
  const double total = acc;
  for (double& v : cdf) v /= total;
  cdf.back() = 1.0;  // guard against rounding
  return cdf;
}

/// The table for (n, alpha), built on first use and shared while any
/// generator holds it. Entries whose table has been freed are pruned on
/// the next insertion.
std::shared_ptr<const std::vector<double>> shared_cdf(std::uint64_t n, double alpha) {
  static std::mutex mu;
  static std::map<std::pair<std::uint64_t, double>, std::weak_ptr<const std::vector<double>>>
      cache;
  const std::lock_guard<std::mutex> lock(mu);
  const auto key = std::make_pair(n, alpha);
  if (auto it = cache.find(key); it != cache.end()) {
    if (auto live = it->second.lock()) return live;
  }
  std::erase_if(cache, [](const auto& entry) { return entry.second.expired(); });
  auto table = std::make_shared<const std::vector<double>>(build_cdf(n, alpha));
  cache[key] = table;
  return table;
}

}  // namespace

ZipfGenerator::ZipfGenerator(std::uint64_t n, double alpha) : n_(n), alpha_(alpha) {
  if (n == 0) throw std::invalid_argument("ZipfGenerator: n must be > 0");
  if (!std::isfinite(alpha)) throw std::invalid_argument("ZipfGenerator: alpha must be finite");
  if (alpha < 0) throw std::invalid_argument("ZipfGenerator: alpha must be >= 0");
  cdf_ = shared_cdf(n, alpha);
}

std::uint64_t ZipfGenerator::sample(Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf_->begin(), cdf_->end(), u);
  return static_cast<std::uint64_t>(it - cdf_->begin());
}

}  // namespace domino
