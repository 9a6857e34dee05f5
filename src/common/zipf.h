// Zipfian key-selection, matching the paper's workload: "The requests
// select keys based on a Zipfian distribution, where the alpha value is
// 0.75" (Section 7.1; 0.95 in the high-contention runs of Figure 10b).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"

namespace domino {

/// Samples ranks in [0, n) with P(rank k) proportional to 1 / (k+1)^alpha.
/// Uses a precomputed inverse-CDF table; O(log n) per sample. The table is
/// immutable and shared by every live generator with the same (n, alpha),
/// so many clients drawing from one key space pay for it once.
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double alpha);

  [[nodiscard]] std::uint64_t sample(Rng& rng) const;

  [[nodiscard]] std::uint64_t n() const { return n_; }
  [[nodiscard]] double alpha() const { return alpha_; }

 private:
  std::uint64_t n_;
  double alpha_;
  std::shared_ptr<const std::vector<double>> cdf_;  // (*cdf_)[k] = P(rank <= k)
};

}  // namespace domino
