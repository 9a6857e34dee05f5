// Self-tests of the benchmark's own helpers (python3 perfbench/run.py
// --selftest). Exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

domino::StatAccumulator one_to(int n) {
  domino::StatAccumulator acc;
  for (int i = 1; i <= n; ++i) acc.add(static_cast<double>(i));
  return acc;
}

void test_supported_percentile() {
  // p99 of 1..1000 is the 990th value; exactly ten samples lie beyond it.
  const domino::StatAccumulator a = one_to(1000);
  expect(samples_beyond(a, 99) == 10, "1000 samples leave 10 beyond p99");
  expect(supported_percentile(a, 99).has_value(), "p99 supported at n=1000");
  expect(near(*supported_percentile(a, 99), 990.0), "p99 of 1..1000 is 990");
  // 999 samples: p99 is still the 990th value, with only nine beyond it.
  expect(!supported_percentile(one_to(999), 99).has_value(), "p99 unsupported at n=999");
  expect(supported_percentile(one_to(999), 90).has_value(), "p90 supported at n=999");
  // Ties at the percentile are not beyond it.
  domino::StatAccumulator ties = one_to(1000);
  for (int i = 0; i < 5; ++i) ties.add(990.0);
  expect(samples_beyond(ties, 99) == 10, "ties with the percentile do not count");
  expect(samples_beyond(domino::StatAccumulator{}, 50) == 0, "nothing beyond an empty sample");
  expect(near(percentile_or_zero(domino::StatAccumulator{}, 50), 0.0), "empty sample reads 0");
  expect(near(percentile_or_zero(one_to(1), 99), 1.0), "single sample is every percentile");
}

void test_quartiles() {
  // Reference values from Python: statistics.quantiles([...], n=4).
  const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(a.q1, 2.75) && near(a.median, 5.5) && near(a.q3, 8.25), "quartiles of 1..10");
  const Quartiles b = quartiles({7, 1, 3});  // unsorted input; [1, 3, 7]
  expect(near(b.q1, 1.0) && near(b.median, 3.0) && near(b.q3, 7.0), "quartiles of 3 values");
  const Quartiles c = quartiles({4, 1, 3, 2});
  expect(near(c.q1, 1.25) && near(c.median, 2.5) && near(c.q3, 3.75), "quartiles of 4 values");
  expect(near(median({2.0}), 2.0), "median of one value");
  expect(near(median({3, 1, 2, 10}), 2.5), "median of an even count");
}

void test_outage() {
  // Window [1000, 2000] ms. Client 0 commits steadily every 10 ms; client 1
  // stalls from 1300 to 1750; client 2 commits before the window only.
  std::vector<std::vector<double>> timeline(2);
  for (double t = 900; t <= 2100; t += 10) timeline[0].push_back(t);
  for (double t = 900; t <= 1300; t += 10) timeline[1].push_back(t);
  for (double t = 1750; t <= 2100; t += 10) timeline[1].push_back(t);
  expect(near(outage_ms(timeline, 1000, 2000), 450.0), "stall of client 1 is the outage");
  timeline.push_back({500, 600});
  expect(near(outage_ms(timeline, 1000, 2000), 1000.0),
         "a client with no commit in the window is out for the whole window");
  expect(near(outage_ms({{1000, 1990}}, 1000, 2000), 990.0), "gap between two commits");
  expect(near(outage_ms({{1005, 1995}}, 1000, 2000), 990.0), "edges count too");
}

void test_failure_tally() {
  FailureTally t;
  t.add_run(1000, 3, 2, /*check_passed=*/true);  // 5 failed
  expect(t.attempted == 1000 && t.failed == 5, "abandoned and in-flight requests fail");
  t.add_run(500, 0, 0, /*check_passed=*/false);  // a failed check fails all 500
  expect(t.attempted == 1500 && t.failed == 505, "a failed check fails the whole run");
  t.add_throw(500);  // a run that threw fails everything it was due to submit
  expect(t.attempted == 2000 && t.failed == 1005, "a throw fails every due request");
  expect(near(t.served_frac(), 1.0 - 1005.0 / 2000.0), "served share");
  expect(near(FailureTally{}.served_frac(), 0.0), "nothing attempted serves nothing");
}

}  // namespace

int main() {
  test_supported_percentile();
  test_quartiles();
  test_outage();
  test_failure_tally();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
