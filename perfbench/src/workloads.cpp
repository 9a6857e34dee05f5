#include "workloads.h"

#include <functional>
#include <stdexcept>

#include "common/rng.h"

namespace perfbench {

using namespace domino;

namespace {

// Case i of an invocation gets its own scenario seed; splitmix64 keeps
// neighbouring invocation seeds from sharing case seeds.
std::uint64_t case_seed(std::uint64_t seed, std::size_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull * (i + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) | 1;
}

// Paper Section 7.2 Globe setting: replicas WA/PR/NSW, WA coordinator, one
// client per datacenter, every replica a learner, 10 ms probes, and the VA
// links replaying a recorded trace.
harness::Scenario globe_wan(std::uint64_t seed, const std::string& repo_root) {
  harness::Scenario s;
  s.topology = net::Topology::globe();
  s.replica_dcs = {s.topology.index_of("WA"), s.topology.index_of("PR"),
                   s.topology.index_of("NSW")};
  s.leader_index = 0;
  for (std::size_t dc = 0; dc < s.topology.size(); ++dc) s.client_dcs.push_back(dc);
  s.rps = 200;
  s.warmup = seconds(2);
  s.measure = seconds(8);
  s.cooldown = seconds(1);
  s.seed = seed;
  s.trace_dir = repo_root + "/bench/traces/globe_va.csv";
  s.trace_capacity = 1 << 19;
  return s;
}

// The Figure 13 cluster (as in bench_fig13_peak_throughput): three machines
// 0.2 ms apart, 9 us per received message, 1 Gbps egress, 24 DM-only clients
// with lean learners, offered just under the capacity knee.
harness::Scenario cluster_dm(std::uint64_t seed) {
  harness::Scenario s;
  s.topology = net::Topology{
      {"m1", "m2", "m3"}, {{0, 0.2, 0.2}, {0.2, 0, 0.2}, {0.2, 0.2, 0}}, microseconds(100)};
  s.replica_dcs = {0, 1, 2};
  s.leader_index = 0;
  const std::size_t clients = 24;
  for (std::size_t c = 0; c < clients; ++c) s.client_dcs.push_back(c % 3);
  s.rps = 38'000.0 / static_cast<double>(clients);
  s.warmup = seconds(1);
  s.measure = seconds(2);
  s.cooldown = milliseconds(300);
  s.trace_capacity = 1 << 21;
  s.seed = seed;
  s.jitter.spike_prob = 0;
  s.jitter.jitter_mu_ms = -4.0;
  s.replica_service_time = microseconds(9);
  s.node_egress_bps = 1e9;
  s.clock_offset_stddev = microseconds(100);
  s.domino_all_learners = false;
  s.domino_mode = core::ClientConfig::Mode::kDmOnly;
  return s;
}

// One fault schedule: a replica crash longer than the 500 ms failure
// detector (victim drawn from all five replicas, coordinator included), a
// degradation epoch between two replica sites, a client<->replica partition
// and a route change, all inside the measure window.
net::FaultSchedule na5_schedule(const harness::Scenario& s, Rng& rng) {
  const TimePoint w0 = TimePoint::epoch() + s.warmup;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_i64(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto at = [&](double lo_s, double hi_s) {
    return w0 + Duration{static_cast<std::int64_t>(rng.uniform(lo_s, hi_s) * 1e9)};
  };
  const auto two_replica_sites = [&] {
    const std::size_t a = pick(s.replica_dcs.size());
    std::size_t b = pick(s.replica_dcs.size() - 1);
    if (b >= a) ++b;
    return std::pair{s.replica_dcs[a], s.replica_dcs[b]};
  };

  net::FaultSchedule f;
  const std::size_t victim = pick(s.replica_dcs.size());
  f.crash_for(at(1.0, 4.0), NodeId{static_cast<std::uint32_t>(victim)},
              Duration{static_cast<std::int64_t>(rng.uniform(0.8, 2.0) * 1e9)});

  const auto [da, db] = two_replica_sites();
  const TimePoint degrade_at = at(0.5, 4.0);
  f.degrade(degrade_at, seconds(2), da, db, 2.5);
  f.degrade(degrade_at, seconds(2), db, da, 2.5);

  std::vector<std::size_t> client_only;
  for (std::size_t dc = 0; dc < s.topology.size(); ++dc) {
    bool hosts_replica = false;
    for (const std::size_t r : s.replica_dcs) hosts_replica = hosts_replica || r == dc;
    if (!hosts_replica) client_only.push_back(dc);
  }
  f.partition_both_for(at(0.5, 5.0), client_only[pick(client_only.size())],
                       s.replica_dcs[pick(s.replica_dcs.size())], milliseconds(500));

  const auto [ra, rb] = two_replica_sites();
  const Duration new_base = s.topology.owd(ra, rb) * rng.uniform(1.2, 1.8);
  const TimePoint route_at = at(0.5, 5.0);
  f.route_change(route_at, ra, rb, new_base);
  f.route_change(route_at, rb, ra, new_base);
  return f;
}

// Paper NA setting with five replicas (WA coordinator, VA, QC, CA, TX) and
// one client per datacenter, under client timeouts with seeded exponential
// backoff, amnesiac crashes with a non-zero sync latency, and VA<->WA
// replaying a drifting trace.
harness::Scenario na5_faults(std::uint64_t seed, const std::string& repo_root) {
  harness::Scenario s;
  s.topology = net::Topology::north_america();
  s.replica_dcs = {s.topology.index_of("WA"), s.topology.index_of("VA"),
                   s.topology.index_of("QC"), s.topology.index_of("CA"),
                   s.topology.index_of("TX")};
  s.leader_index = 0;
  for (std::size_t dc = 0; dc < s.topology.size(); ++dc) s.client_dcs.push_back(dc);
  s.rps = 100;
  s.warmup = seconds(2);
  s.measure = seconds(6);
  // A request submitted at the end of the window may still ride out a crash
  // plus several retries.
  s.cooldown = seconds(4);
  s.seed = seed;
  s.trace_dir = repo_root + "/bench/traces/va_wa_drift.csv";
  s.trace_capacity = 1 << 20;
  s.client_request_timeout = milliseconds(300);
  s.client_max_retries = 8;
  s.client_backoff_multiplier = 2.0;
  s.client_backoff_cap = seconds(2);
  s.client_backoff_jitter = 0.2;
  s.amnesia_crashes = true;
  s.sync_latency = milliseconds(1);
  Rng rng(seed ^ 0xFA017ull);
  s.faults = na5_schedule(s, rng);
  return s;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& repo_root) {
  Workload w;
  w.name = name;
  std::size_t cases = 0;
  std::function<harness::Scenario(std::uint64_t)> build;
  if (name == "globe_wan") {
    cases = 32;
    build = [&repo_root](std::uint64_t s) { return globe_wan(s, repo_root); };
  } else if (name == "cluster_dm") {
    cases = 7;
    build = cluster_dm;
  } else if (name == "na5_faults") {
    cases = 8;
    w.faulty = true;
    w.traced_cases = 4;
    build = [&repo_root](std::uint64_t s) { return na5_faults(s, repo_root); };
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  for (std::size_t i = 0; i < cases; ++i) w.cases.push_back(build(case_seed(seed, i)));
  return w;
}

std::uint64_t due_requests(const harness::Scenario& s) {
  // The harness staggers client i's start by i ms, then submits every
  // 1/rps until the end of the measure window.
  const std::int64_t interval = static_cast<std::int64_t>(1e9 / s.rps);
  const std::int64_t end = (s.warmup + s.measure).nanos();
  std::uint64_t due = 0;
  for (std::size_t i = 0; i < s.client_dcs.size(); ++i) {
    const std::int64_t start = milliseconds(1).nanos() * static_cast<std::int64_t>(i);
    if (end > start) due += static_cast<std::uint64_t>((end - start) / interval);
  }
  return due;
}

}  // namespace perfbench
