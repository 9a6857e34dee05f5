// End-to-end runs: every scenario goes through harness::run_protocol exactly
// as a user of the simulator would run it. Virtual-time metrics pool the
// workload's fixed list of cases; wall-clock metrics are medians over
// repeated runs inside the time budget.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "reference.h"
#include "report.h"
#include "stats.h"

namespace perfbench {

using namespace domino;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since_epoch(TimePoint t) { return (t - TimePoint::epoch()).millis(); }

// The harness numbers clients 1000, 1001, ... in Scenario::client_dcs order.
constexpr std::uint32_t kFirstClientId = 1000;

struct CaseResult {
  bool threw = false;
  std::string error;
  std::vector<std::string> check_failures;
  double wall_s = 0.0;
  // Virtual-time outputs (the determinism witness compares these).
  StatAccumulator commit_ms;
  StatAccumulator exec_ms;
  double outage_ms = 0.0;
  bool trace_covers_window = true;
  std::uint64_t submitted = 0;
  std::uint64_t client_committed = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t inflight_end = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t fault_digest = 0;
};

// The correctness check of one run: the liveness identity, a majority of
// replicas sharing one store fingerprint that has applied at least every
// client-acknowledged command.
std::vector<std::string> check_run(const harness::RunResult& r) {
  std::vector<std::string> failures;
  const std::uint64_t accounted = r.client_committed + r.client_abandoned + r.client_inflight_end;
  if (r.submitted != accounted) {
    failures.push_back("liveness identity: submitted " + std::to_string(r.submitted) +
                       " != committed+abandoned+inflight " + std::to_string(accounted));
  }
  const std::size_t n = r.replica_store_fingerprints.size();
  std::map<std::uint64_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < n; ++i) groups[r.replica_store_fingerprints[i]].push_back(i);
  const std::vector<std::size_t>* majority = nullptr;
  std::size_t largest = 0;
  for (const auto& [fp, members] : groups) {
    largest = std::max(largest, members.size());
    if (members.size() * 2 > n) majority = &members;
  }
  if (majority == nullptr) {
    failures.push_back("no majority store fingerprint (largest group " + std::to_string(largest) +
                       "/" + std::to_string(n) + ")");
  } else {
    for (const std::size_t i : *majority) {
      if (r.replica_applied_counts[i] < r.client_committed) {
        failures.push_back("replica " + std::to_string(i) + " applied " +
                           std::to_string(r.replica_applied_counts[i]) + " < client-committed " +
                           std::to_string(r.client_committed));
      }
    }
  }
  if (!failures.empty()) {
    std::string applied = "applied per replica:";
    for (const std::uint64_t a : r.replica_applied_counts) applied += " " + std::to_string(a);
    failures.push_back(applied + " (client-committed " + std::to_string(r.client_committed) + ")");
  }
  return failures;
}

CaseResult run_case(const harness::Scenario& s) {
  CaseResult c;
  const auto t0 = Clock::now();
  try {
    harness::RunResult r = harness::run_protocol(harness::Protocol::kDomino, s);
    c.wall_s = seconds_since(t0);
    c.commit_ms = std::move(r.commit_ms);
    c.exec_ms = std::move(r.exec_ms);
    c.submitted = r.submitted;
    c.client_committed = r.client_committed;
    c.abandoned = r.client_abandoned;
    c.inflight_end = r.client_inflight_end;
    c.packets_sent = r.packets_sent;
    c.bytes_sent = r.bytes_sent;
    c.fault_digest = r.fault_digest;
    c.check_failures = check_run(r);

    const double ws = ms_since_epoch(TimePoint::epoch() + s.warmup);
    const double we = ws + s.measure.millis();
    std::vector<std::vector<double>> commits(s.client_dcs.size());
    const std::vector<obs::TraceEvent> events = r.trace->snapshot();
    r = {};  // release the trace ring before walking the copy
    c.trace_covers_window = events.empty() || ms_since_epoch(events.front().at) <= ws;
    for (const obs::TraceEvent& e : events) {
      if (e.kind != obs::EventKind::kCommit) continue;
      const std::size_t client = e.node.value() - kFirstClientId;
      if (client < commits.size()) commits[client].push_back(ms_since_epoch(e.at));
    }
    c.outage_ms = outage_ms(commits, ws, we);
  } catch (const std::exception& e) {
    c.wall_s = seconds_since(t0);
    c.threw = true;
    c.error = e.what();
  }
  return c;
}

// Differences between two same-seed runs, in virtual-time outputs and
// packet counts; empty when the runs agree exactly.
std::vector<std::string> witness_mismatches(const CaseResult& a, const CaseResult& b) {
  std::vector<std::string> out;
  const auto cmp = [&out](const char* what, auto x, auto y) {
    if (x != y) out.push_back(std::string(what) + ": " + std::to_string(x) + " vs " +
                              std::to_string(y));
  };
  cmp("threw", a.threw, b.threw);
  if (a.threw || b.threw) {
    if (a.error != b.error) out.push_back("error: '" + a.error + "' vs '" + b.error + "'");
    return out;
  }
  cmp("commit samples", a.commit_ms.count(), b.commit_ms.count());
  cmp("commit_p50_ms", percentile_or_zero(a.commit_ms, 50), percentile_or_zero(b.commit_ms, 50));
  cmp("commit_p99_ms", percentile_or_zero(a.commit_ms, 99), percentile_or_zero(b.commit_ms, 99));
  cmp("exec samples", a.exec_ms.count(), b.exec_ms.count());
  cmp("exec_p50_ms", percentile_or_zero(a.exec_ms, 50), percentile_or_zero(b.exec_ms, 50));
  cmp("exec_p99_ms", percentile_or_zero(a.exec_ms, 99), percentile_or_zero(b.exec_ms, 99));
  cmp("outage_ms", a.outage_ms, b.outage_ms);
  cmp("submitted", a.submitted, b.submitted);
  cmp("client_committed", a.client_committed, b.client_committed);
  cmp("packets_sent", a.packets_sent, b.packets_sent);
  cmp("bytes_sent", a.bytes_sent, b.bytes_sent);
  cmp("fault_digest", a.fault_digest, b.fault_digest);
  return out;
}

// The crashes of a fault schedule, for the per-case progress lines.
std::string crash_summary(const harness::Scenario& s) {
  std::string out;
  for (const net::FaultEvent& e : s.faults.events()) {
    if (e.kind != net::FaultEvent::Kind::kCrash) continue;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%scrash replica %u at %.3f s", out.empty() ? ", " : "; ",
                  e.node.value(), (e.at - TimePoint::epoch()).seconds());
    out += buf;
  }
  return out;
}

// A run's p99 when at least ten samples lie beyond it, else the highest of
// p90 and the median that has that support (with a warning).
double tail_ms(const StatAccumulator& acc, const char* what) {
  for (const double p : {99.0, 90.0}) {
    if (const auto v = supported_percentile(acc, p)) {
      if (p != 99.0) {
        std::fprintf(stderr, "warning: %s has %zu samples; p99 unsupported, reporting p%g\n",
                     what, acc.count(), p);
      }
      return *v;
    }
  }
  std::fprintf(stderr, "warning: %s has %zu samples; p99 unsupported, reporting the median\n",
               what, acc.count());
  return percentile_or_zero(acc, 50);
}

// Peak resident memory of one run_protocol of `s` in a forked child, so
// neither the benchmark's own bookkeeping nor allocator state left by
// earlier runs counts: in one long-lived process the peak varied by 114 MiB between
// invocations of the same seed, depending on where earlier runs' freed blocks
// landed. Call before the parent allocates much; the child starts with the
// parent's resident pages.
double isolated_peak_rss_mb(const harness::Scenario& s) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    try {
      (void)harness::run_protocol(harness::Protocol::kDomino, s);
    } catch (const std::exception&) {
      // A run that throws is reported by the timed runs; its peak still counts.
    }
    _exit(0);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status)) {
    throw std::runtime_error("memory-measurement child failed");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

Report run_end_to_end(const Workload& workload, const std::string& repo_root,
                      std::uint64_t seed, double seconds) {
  const auto start = Clock::now();
  Report report;
  const double rss_mb = isolated_peak_rss_mb(workload.cases.front());

  // Set-up is sampled next to every timed run: a zero-length run_protocol
  // of the same scenario parses the trace CSV, builds the per-client
  // workload generators and constructs the deployment, but simulates only
  // the events due at time zero. Subtracting it from the full run that
  // follows measures both in the same machine state; the machine's speed
  // drifts too much between seconds for one up-front estimate to do.
  // Input preparation (scenario and fault-schedule build) is timed once and
  // shared out over the cases.
  const auto prep0 = Clock::now();
  (void)make_workload(workload.name, seed, repo_root);
  const double prep_s = seconds_since(prep0) / static_cast<double>(workload.cases.size());
  std::vector<double> setup_s;
  std::vector<double> rates;  // client-committed commands per wall second
  std::vector<double> reference_s;
  const auto timed_case = [&](const harness::Scenario& s) {
    harness::Scenario zero = s;
    zero.warmup = zero.measure = zero.cooldown = Duration::zero();
    const auto z0 = Clock::now();
    try {
      (void)harness::run_protocol(harness::Protocol::kDomino, zero);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "set-up run threw: %s\n", e.what());
    }
    const double setup = seconds_since(z0);
    setup_s.push_back(prep_s + setup);
    CaseResult c = run_case(s);
    if (!c.threw && c.wall_s > setup) {
      rates.push_back(static_cast<double>(c.client_committed) / (c.wall_s - setup));
    }
    reference_s.push_back(reference_seconds());
    return c;
  };

  std::vector<CaseResult> cases;
  FailureTally tally;
  bool all_checks_passed = true;
  for (std::size_t i = 0; i < workload.cases.size(); ++i) {
    const harness::Scenario& s = workload.cases[i];
    CaseResult c = timed_case(s);
    if (c.threw) {
      tally.add_throw(due_requests(s));
      all_checks_passed = false;
      std::fprintf(stderr, "case %zu seed %" PRIu64 "%s: threw after %.2fs: %s\n", i, s.seed,
                   crash_summary(s).c_str(), c.wall_s, c.error.c_str());
    } else {
      tally.add_run(c.submitted, c.abandoned, c.inflight_end, c.check_failures.empty());
      all_checks_passed = all_checks_passed && c.check_failures.empty();
      std::fprintf(stderr,
                   "case %zu seed %" PRIu64 "%s: %.2fs wall, %" PRIu64 " submitted, %" PRIu64
                   " committed, %" PRIu64 " abandoned, %" PRIu64
                   " in flight, commit p50 %.4f p99 %.4f ms, outage %.1f ms, check %s\n",
                   i, s.seed, crash_summary(s).c_str(), c.wall_s, c.submitted, c.client_committed,
                   c.abandoned,
                   c.inflight_end, percentile_or_zero(c.commit_ms, 50),
                   percentile_or_zero(c.commit_ms, 99),
                   c.outage_ms, c.check_failures.empty() ? "ok" : "FAILED");
      for (const std::string& f : c.check_failures) std::fprintf(stderr, "    %s\n", f.c_str());
      if (!c.trace_covers_window) {
        std::fprintf(stderr, "case %zu: trace ring overwrote part of the measure window\n", i);
        report.correct = false;
      }
    }
    cases.push_back(std::move(c));
  }

  // Determinism witness: the first case again, same seed, same process.
  const CaseResult again = timed_case(workload.cases.front());
  const std::vector<std::string> mismatches = witness_mismatches(cases.front(), again);
  for (const std::string& m : mismatches) {
    std::fprintf(stderr, "determinism witness mismatch: %s\n", m.c_str());
  }
  if (!mismatches.empty()) report.correct = false;

  // More wall-clock samples while the budget lasts; these repeat the cases
  // and add nothing to the virtual-time metrics.
  for (std::size_t i = 1; seconds_since(start) < seconds; ++i) {
    (void)timed_case(workload.cases[i % workload.cases.size()]);
  }

  // On a fault-free workload every run must pass its check; under injected
  // faults a failed check is the measured outcome, reported as failures.
  if (!workload.faulty && !all_checks_passed) report.correct = false;

  // Latency and outage: each run's percentile over all its clients, then
  // the median over the workload's cases, so one case that happens to sit
  // above the capacity knee does not swing the whole invocation.
  std::vector<double> commit_p50, commit_p99, exec_p50, exec_p99, outages;
  std::size_t commit_samples = 0, exec_samples = 0;
  for (const CaseResult& c : cases) {
    if (c.threw) continue;
    commit_p50.push_back(percentile_or_zero(c.commit_ms, 50));
    commit_p99.push_back(tail_ms(c.commit_ms, "commit latency"));
    exec_p50.push_back(percentile_or_zero(c.exec_ms, 50));
    exec_p99.push_back(tail_ms(c.exec_ms, "execution latency"));
    outages.push_back(c.outage_ms);
    commit_samples += c.commit_ms.count();
    exec_samples += c.exec_ms.count();
  }
  if (outages.empty()) std::fprintf(stderr, "warning: every run threw; no latency samples\n");

  report.attempted = tally.attempted;
  report.failed = tally.failed;
  report.add("commit_p50_ms", median(commit_p50), "ms");
  report.add("commit_p99_ms", median(commit_p99), "ms");
  report.add("exec_p50_ms", median(exec_p50), "ms");
  report.add("exec_p99_ms", median(exec_p99), "ms");
  report.add("served_frac", tally.served_frac(), "ratio");
  report.add("outage_ms", median(outages), "ms");
  // Wall-clock metrics at the reference machine speed (see reference.h).
  const double slowdown = median(reference_s) / kReferenceNominalS;
  report.add("sim_cmds_per_s", median(rates) * slowdown, "cmd/s");
  report.add("setup_s", median(setup_s) / slowdown, "s");
  report.add("peak_rss_mb", rss_mb, "MiB");

  const Quartiles raw = quartiles(rates);
  std::fprintf(stderr,
               "raw wall clock: sim_cmds_per_s q1 %.1f median %.1f q3 %.1f over %zu timed runs, "
               "setup_s %.6f; reference %.6f s (machine at %.3fx nominal time)\n",
               raw.q1, raw.median, raw.q3, rates.size(), median(setup_s), median(reference_s),
               slowdown);
  std::fprintf(stderr,
               "%s: %zu commit / %zu exec samples over %zu cases, "
               "failed_frac %.6f (%" PRIu64 "/%" PRIu64 "), witness %s\n",
               workload.name.c_str(), commit_samples, exec_samples, cases.size(),
               1.0 - tally.served_frac(), tally.failed, tally.attempted,
               mismatches.empty() ? "identical" : "MISMATCH");
  return report;
}

}  // namespace perfbench
