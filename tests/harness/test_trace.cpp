#include "harness/trace.h"

#include <gtest/gtest.h>

#include "wan/generator.h"

namespace domino::harness {
namespace {

/// A synthetic directed link pair: one wan::TraceGenerator series per
/// direction (forward base = rtt * forward_share, reverse base = the rest),
/// paired into probe samples as a prober with the given remote clock offset
/// would observe them.
struct SyntheticLink {
  Duration rtt = milliseconds(67);
  double forward_share = 0.5;
  Duration remote_clock_offset = Duration::zero();
  double spike_prob = 0.0;
  Duration spike_mean = milliseconds(8);
  Duration duration = seconds(30);
  std::uint64_t seed = 1;

  [[nodiscard]] std::vector<ProbeSample> probes() const {
    wan::GeneratorConfig fwd;
    fwd.base = scale(rtt, forward_share);
    fwd.duration = duration;
    fwd.spike_prob = spike_prob;
    fwd.spike_mean = spike_mean;
    fwd.seed = 2 * seed;
    wan::GeneratorConfig rev = fwd;
    rev.base = rtt - fwd.base;
    rev.seed = 2 * seed + 1;
    return probe_samples_from_wan(wan::TraceGenerator(fwd).generate(),
                                  wan::TraceGenerator(rev).generate(), remote_clock_offset);
  }
};

TEST(TraceGenerator, ProducesExpectedSampleCount) {
  SyntheticLink link;
  link.duration = seconds(1);
  EXPECT_EQ(link.probes().size(), 100u);  // default 10 ms sample interval
}

TEST(TraceGenerator, RttNearNominal) {
  for (const auto& s : SyntheticLink{}.probes()) {
    EXPECT_GE(s.rtt, milliseconds(67));
    EXPECT_LT(s.rtt, milliseconds(80));  // jitter is small vs the floor
  }
}

TEST(TraceGenerator, SymmetricPathHalfRttIsGoodOwd) {
  for (const auto& s : SyntheticLink{}.probes()) {
    // forward share 0.5, no skew: measured OWD ~ rtt/2.
    EXPECT_NEAR(s.owd_measured.millis(), s.rtt.millis() / 2, 3.0);
  }
}

TEST(TraceGenerator, AsymmetryShiftsOwd) {
  SyntheticLink link;
  link.forward_share = 0.7;
  const auto trace = link.probes();
  double avg = 0;
  for (const auto& s : trace) avg += s.owd_measured.millis();
  avg /= static_cast<double>(trace.size());
  EXPECT_NEAR(avg, 67.0 * 0.7, 2.0);
}

TEST(TraceGenerator, ClockOffsetFoldsIntoMeasuredOwd) {
  SyntheticLink link;
  link.remote_clock_offset = milliseconds(500);
  for (const auto& s : link.probes()) {
    EXPECT_GT(s.owd_measured, milliseconds(500));
  }
}

TEST(TraceGenerator, DeterministicPerSeed) {
  const auto a = SyntheticLink{}.probes();
  const auto b = SyntheticLink{}.probes();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[17].rtt, b[17].rtt);
}

TEST(Prediction, HighPercentilePredictsWell) {
  // Matches Figure 3's top-right region: p95 with a 1 s window on a stable
  // link predicts correctly ~95% of the time.
  const auto outcome = evaluate_predictions(SyntheticLink{}.probes(),
                                            OwdEstimator::kReplicaTimestamp, seconds(1), 95.0);
  EXPECT_GT(outcome.correct_rate, 0.88);
  EXPECT_GT(outcome.evaluated, 1000u);
}

TEST(Prediction, LowPercentilePredictsPoorly) {
  // Figure 3's left side: low percentiles under-predict most arrivals.
  const auto trace = SyntheticLink{}.probes();
  const auto p5 =
      evaluate_predictions(trace, OwdEstimator::kReplicaTimestamp, seconds(1), 5.0);
  const auto p95 =
      evaluate_predictions(trace, OwdEstimator::kReplicaTimestamp, seconds(1), 95.0);
  EXPECT_LT(p5.correct_rate + 0.3, p95.correct_rate);
}

TEST(Prediction, HalfRttFailsUnderAsymmetry) {
  // The Table 2 vs Table 3 effect: with disjoint forward/reverse paths the
  // half-RTT estimator mispredicts by roughly the asymmetry, while the
  // replica-timestamp estimator stays accurate.
  SyntheticLink link;
  link.forward_share = 0.75;  // forward path carries 75% of the RTT
  const auto trace = link.probes();
  const auto half =
      evaluate_predictions(trace, OwdEstimator::kHalfRtt, seconds(1), 95.0);
  const auto owd =
      evaluate_predictions(trace, OwdEstimator::kReplicaTimestamp, seconds(1), 95.0);
  EXPECT_LT(half.correct_rate, 0.2);
  EXPECT_GT(owd.correct_rate, 0.88);
  EXPECT_GT(half.p99_misprediction_ms, 10.0);  // ~67 * 0.25 ms systematic error
  EXPECT_LT(owd.p99_misprediction_ms, 8.0);
}

TEST(Prediction, HalfRttFailsUnderClockSkew) {
  SyntheticLink link;
  link.remote_clock_offset = milliseconds(30);
  const auto trace = link.probes();
  const auto half =
      evaluate_predictions(trace, OwdEstimator::kHalfRtt, seconds(1), 95.0);
  const auto owd =
      evaluate_predictions(trace, OwdEstimator::kReplicaTimestamp, seconds(1), 95.0);
  // Arrivals (in replica clock) are ~30 ms later than half-RTT predicts.
  EXPECT_LT(half.correct_rate, 0.1);
  EXPECT_GT(owd.correct_rate, 0.88);
}

TEST(Prediction, SpikesCauseBoundedMispredictions) {
  SyntheticLink link;
  link.spike_prob = 0.01;
  link.spike_mean = milliseconds(10);
  const auto outcome =
      evaluate_predictions(link.probes(), OwdEstimator::kReplicaTimestamp, seconds(1), 95.0);
  EXPECT_GT(outcome.correct_rate, 0.85);
  EXPECT_GT(outcome.p99_misprediction_ms, 0.0);
}

}  // namespace
}  // namespace domino::harness
