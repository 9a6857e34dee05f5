// Traced run: the benchmark assembles the Domino deployment itself from
// public pieces (core::Replica / core::Client over a decorating
// rpc::Context), mirroring harness::run_protocol's wiring, and drives
// sim::Simulator::step() itself. Spans are taken around the calls into each
// layer from here, so nothing inside src/ is instrumented:
//   - net::Network::send                 -> net.send_ns
//   - every delivered-packet dispatch,   -> core.dfp / core.dm / measure.probe /
//     grouped by wire::peek_type            recovery dispatch self time
//   - every callback scheduled through   -> rpc.timer_ns
//     the context
//   - step() minus the callbacks above   -> sim.self_ns_per_event
// Self time excludes nested spans (a handler's sends are charged to
// net.send_ns, not to the handler). Public counters, untraced run_protocol
// runs bracketing each traced case, and one run_protocol with the
// prediction audit supply the rest.
#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "core/messages.h"
#include "core/replica.h"
#include "harness/collector.h"
#include "measure/messages.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/durable.h"
#include "recovery/messages.h"
#include "report.h"
#include "rpc/context.h"
#include "sim/simulator.h"
#include "stats.h"
#include "statemachine/workload.h"
#include "wan/delay_trace.h"
#include "wan/empirical.h"
#include "wire/message.h"

namespace perfbench {

using namespace domino;

namespace {

using Clock = std::chrono::steady_clock;
using wire::MessageType;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct TimeAcc {
  std::uint64_t count = 0;
  std::int64_t ns = 0;
  void add(std::int64_t d) {
    ++count;
    ns += d;
  }
  void merge(const TimeAcc& o) {
    count += o.count;
    ns += o.ns;
  }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(count);
  }
};

constexpr std::size_t kTags = wire::kMaxMessageTypeTag;
// Payloads kept per message type for the wire replay: every 32nd send, up
// to this many.
constexpr std::size_t kCapturePerType = 128;

std::size_t tag_of(const wire::Payload& payload) {
  const auto tag = static_cast<std::size_t>(wire::peek_type(payload));
  return tag < kTags ? tag : 0;
}

/// Span totals of the traced runs, pooled over the workload's traced cases.
struct Spans {
  TimeAcc send;
  TimeAcc timer;
  std::array<TimeAcc, kTags> dispatch{};
  std::array<std::uint64_t, kTags> sent_by_type{};
  std::array<std::vector<wire::Payload>, kTags> captured{};
  StatAccumulator delivery_ms;    // virtual sent_at -> dispatch
  std::int64_t callback_ns = 0;   // outermost spans, drained per step
};

/// Decorates the simulator transport with spans around every send, every
/// packet dispatch and every scheduled callback.
class TracedContext final : public rpc::Context {
 public:
  TracedContext(net::Network& network, Spans& spans) : network_(network), spans_(spans) {}
  TracedContext(const TracedContext&) = delete;
  TracedContext& operator=(const TracedContext&) = delete;

  /// Nodes built over an rpc::Context do not pass their datacenter, so the
  /// assembly declares each node's placement before constructing it.
  void place(NodeId id, std::size_t dc) { dcs_[id] = dc; }

  void send(NodeId src, NodeId dst, wire::Payload payload) override {
    const std::size_t tag = tag_of(payload);
    if (spans_.sent_by_type[tag]++ % 32 == 0 && spans_.captured[tag].size() < kCapturePerType) {
      spans_.captured[tag].push_back(payload);
    }
    const std::int64_t t0 = now_ns();
    network_.send(src, dst, std::move(payload));
    const std::int64_t d = now_ns() - t0;
    spans_.send.add(d);
    nested_ += d;
  }

  void schedule(Duration delay, std::function<void()> fn) override {
    network_.simulator().schedule_after(delay,
                                        [this, fn = std::move(fn)] { timed(spans_.timer, fn); });
  }

  [[nodiscard]] TimePoint now() const override { return network_.simulator().now(); }

  void register_node(NodeId id, std::size_t /*dc*/, Receiver receiver) override {
    network_.register_node(
        id, dcs_.at(id), [this, receiver = std::move(receiver)](const net::Packet& p) {
          spans_.delivery_ms.add((now() - p.sent_at).millis());
          timed(spans_.dispatch[tag_of(p.payload)], [&] { receiver(p); });
        });
  }

  [[nodiscard]] obs::Sink obs() const override { return network_.obs_sink(); }

 private:
  // Runs f, charging its self time (total minus nested spans) to acc and
  // its total to the enclosing span.
  template <typename F>
  void timed(TimeAcc& acc, F&& f) {
    const std::int64_t outer_nested = std::exchange(nested_, 0);
    ++depth_;
    const std::int64_t t0 = now_ns();
    f();
    const std::int64_t total = now_ns() - t0;
    --depth_;
    acc.add(total - nested_);
    nested_ = outer_nested + total;
    if (depth_ == 0) spans_.callback_ns += total;
  }

  net::Network& network_;
  Spans& spans_;
  std::unordered_map<NodeId, std::size_t> dcs_;
  std::int64_t nested_ = 0;
  int depth_ = 0;
};

NodeId replica_id(std::size_t i) { return NodeId{static_cast<std::uint32_t>(i)}; }
NodeId client_id(std::size_t i) { return NodeId{static_cast<std::uint32_t>(1000 + i)}; }

/// The Domino deployment harness::run_protocol builds for a scenario, with
/// the same construction order, RNG streams and hooks, over TracedContext.
/// Members are declared so that nodes are destroyed before everything they
/// reference.
struct Assembly {
  Assembly(const harness::Scenario& sc, Spans& spans)
      : s(sc),
        metrics(std::make_shared<obs::MetricsRegistry>()),
        trace(std::make_shared<obs::TraceRecorder>(sc.trace_capacity)),
        network(simulator, sc.topology, sc.seed),
        context(network, spans),
        clock_rng(sc.seed ^ 0x5DEECE66Dull),
        window_end(TimePoint::epoch() + sc.warmup + sc.measure),
        collector(TimePoint::epoch() + sc.warmup, window_end, sc.client_dcs.size()),
        durable(recovery::DurableConfig{sc.sync_latency}) {
    network.use_default_links(s.jitter);
    if (!s.trace_dir.empty()) {
      wan::apply_trace(wan::DelayTrace::load(s.trace_dir), network, s.wan_config);
    }
    if (!s.faults.empty()) network.install_faults(s.faults);
    const obs::Sink sink{metrics.get(), trace.get(), nullptr, nullptr};
    simulator.bind_obs(sink);
    network.bind_obs(sink);
    durable.bind_obs(sink);
    if (s.amnesia_crashes) {
      network.set_restart_hook([this](NodeId node) {
        const auto it = restarters.find(node);
        if (it != restarters.end()) it->second();
      });
    }
    const bool durability = s.amnesia_crashes || s.sync_latency > Duration::zero();

    std::vector<NodeId> rids;
    for (std::size_t i = 0; i < s.replica_dcs.size(); ++i) rids.push_back(replica_id(i));
    for (std::size_t i = 0; i < s.replica_dcs.size(); ++i) {
      core::ReplicaConfig rc;
      rc.prober.percentile = s.measurement_percentile;
      rc.prober.probe_interval = s.probe_interval;
      rc.prober.window = s.measurement_window;
      rc.all_replicas_learn = s.domino_all_learners;
      context.place(rids[i], s.replica_dcs[i]);
      auto r = std::make_unique<core::Replica>(rids[i], context, rids, rids[s.leader_index], rc,
                                               next_clock());
      r->attach();
      if (durability) {
        r->enable_durability(durable);
        if (s.amnesia_crashes) restarters[rids[i]] = [p = r.get()] { p->restart(); };
      }
      r->start();
      apply_capacity(rids[i], true);
      r->set_execute_hook(
          [this](const RequestId& id, TimePoint at) { collector.on_execute(id, at); });
      replicas.push_back(std::move(r));
    }
    for (std::size_t i = 0; i < s.client_dcs.size(); ++i) {
      core::ClientConfig cc;
      cc.prober.percentile = s.measurement_percentile;
      cc.prober.probe_interval = s.probe_interval;
      cc.prober.window = s.measurement_window;
      cc.additional_delay = s.additional_delay;
      cc.mode = s.domino_mode;
      cc.adaptive = s.domino_adaptive;
      cc.timestamp_shard_space = s.domino_timestamp_shard_space;
      context.place(client_id(i), s.client_dcs[i]);
      auto c = std::make_unique<core::Client>(client_id(i), context, rids, cc, next_clock());
      c->attach();
      c->start();
      apply_capacity(client_id(i), false);
      clients.push_back(std::move(c));
    }

    for (std::size_t i = 0; i < clients.size(); ++i) {
      workloads.push_back(
          std::make_unique<sm::WorkloadGenerator>(s.workload, s.seed * 7919 + i));
      core::Client* client = clients[i].get();
      if (s.client_request_timeout > Duration::zero()) {
        client->set_request_timeout(s.client_request_timeout, s.client_max_retries);
        client->set_retry_backoff(s.client_backoff_multiplier, s.client_backoff_cap,
                                  s.client_backoff_jitter, s.seed * 40503 + i);
      }
      client->set_send_hook(
          [this, i](const RequestId& id, TimePoint at) { collector.on_send(i, id, at); });
      client->set_commit_hook([this, i](const RequestId& id, TimePoint sent, TimePoint done) {
        collector.on_commit(i, id, sent, done);
      });
      simulator.schedule_after(milliseconds(1) * static_cast<std::int64_t>(i),
                               [this, client, i] { client->start_load(*workloads[i], s.rps); });
      simulator.schedule_at(window_end, [client] { client->stop_load(); });
    }
  }

  sim::LocalClock next_clock() {
    const double stddev = static_cast<double>(s.clock_offset_stddev.nanos());
    return sim::LocalClock{Duration{static_cast<std::int64_t>(clock_rng.normal(0, stddev))},
                           clock_rng.normal(0, 5.0)};
  }

  void apply_capacity(NodeId id, bool is_replica) {
    if (is_replica && s.replica_service_time > Duration::zero()) {
      network.set_receive_service_time(id, s.replica_service_time);
    }
    if (s.node_egress_bps > 0.0) network.set_egress_bandwidth_bps(id, s.node_egress_bps);
  }

  const harness::Scenario& s;
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::TraceRecorder> trace;
  sim::Simulator simulator;
  net::Network network;
  TracedContext context;
  Rng clock_rng;
  TimePoint window_end;
  harness::LatencyCollector collector;
  recovery::DurableStore durable;
  std::unordered_map<NodeId, std::function<void()>> restarters;
  std::vector<std::unique_ptr<sm::WorkloadGenerator>> workloads;
  std::vector<std::unique_ptr<core::Replica>> replicas;
  std::vector<std::unique_ptr<core::Client>> clients;
};

// Decode and re-encode captured payloads of message type M, `rounds` times
// over the sample; adds the per-message mean times to dec/enc.
template <typename M>
void replay(const std::vector<wire::Payload>& payloads, int rounds, TimeAcc& dec,
            TimeAcc& enc) {
  if (payloads.empty()) return;
  std::vector<M> msgs;
  msgs.reserve(payloads.size());
  std::size_t bytes = 0;
  const std::int64_t t0 = now_ns();
  for (int r = 0; r < rounds; ++r) {
    msgs.clear();
    for (const wire::Payload& p : payloads) msgs.push_back(wire::decode_message<M>(p));
  }
  const std::int64_t t1 = now_ns();
  for (int r = 0; r < rounds; ++r) {
    for (const M& m : msgs) bytes += wire::encode_message(m).size();
  }
  const std::int64_t t2 = now_ns();
  const auto n = static_cast<std::int64_t>(payloads.size()) * rounds;
  dec.add((t1 - t0) / n);
  enc.add((t2 - t1) / n);
  if (bytes == 0) std::fprintf(stderr, "wire replay produced no bytes\n");
}

// Per-type codec cost, weighted by how often each type was sent. Types the
// Domino deployment never sends, or that have no decoder here, are skipped
// (their share of sends is printed).
std::pair<double, double> wire_costs(const Spans& spans) {
  const int rounds = 50;
  double dec_sum = 0.0, enc_sum = 0.0;
  std::uint64_t weight = 0, uncovered = 0;
  for (std::size_t tag = 0; tag < kTags; ++tag) {
    const std::uint64_t sent = spans.sent_by_type[tag];
    if (sent == 0) continue;
    const auto& payloads = spans.captured[tag];
    TimeAcc dec, enc;
    switch (static_cast<MessageType>(tag)) {
      case MessageType::kProbe: replay<measure::Probe>(payloads, rounds, dec, enc); break;
      case MessageType::kProbeReply: replay<measure::ProbeReply>(payloads, rounds, dec, enc); break;
      case MessageType::kDfpPropose: replay<core::DfpPropose>(payloads, rounds, dec, enc); break;
      case MessageType::kDfpAcceptNotice:
        replay<core::DfpAcceptNotice>(payloads, rounds, dec, enc);
        break;
      case MessageType::kDfpCommit: replay<core::DfpCommit>(payloads, rounds, dec, enc); break;
      case MessageType::kDfpClientReply:
        replay<core::DfpClientReply>(payloads, rounds, dec, enc);
        break;
      case MessageType::kDfpRecoveryAccept:
        replay<core::DfpRecoveryAccept>(payloads, rounds, dec, enc);
        break;
      case MessageType::kDfpRecoveryReply:
        replay<core::DfpRecoveryReply>(payloads, rounds, dec, enc);
        break;
      case MessageType::kDominoHeartbeat: replay<core::Heartbeat>(payloads, rounds, dec, enc); break;
      case MessageType::kDmPropose: replay<core::DmPropose>(payloads, rounds, dec, enc); break;
      case MessageType::kDmAccept: replay<core::DmAccept>(payloads, rounds, dec, enc); break;
      case MessageType::kDmAcceptReply: replay<core::DmAcceptReply>(payloads, rounds, dec, enc); break;
      case MessageType::kDmCommit: replay<core::DmCommit>(payloads, rounds, dec, enc); break;
      case MessageType::kDmClientReply: replay<core::DmClientReply>(payloads, rounds, dec, enc); break;
      case MessageType::kDmRevoke: replay<core::DmRevoke>(payloads, rounds, dec, enc); break;
      case MessageType::kDmRevokeReply: replay<core::DmRevokeReply>(payloads, rounds, dec, enc); break;
      case MessageType::kDmRevokeResult:
        replay<core::DmRevokeResult>(payloads, rounds, dec, enc);
        break;
      case MessageType::kDfpRangeRecover:
        replay<core::DfpRangeRecover>(payloads, rounds, dec, enc);
        break;
      case MessageType::kDfpRangeReply: replay<core::DfpRangeReply>(payloads, rounds, dec, enc); break;
      case MessageType::kDfpRangeResolve:
        replay<core::DfpRangeResolve>(payloads, rounds, dec, enc);
        break;
      case MessageType::kCatchupRequest:
        replay<recovery::CatchupRequest>(payloads, rounds, dec, enc);
        break;
      case MessageType::kCatchupReply: replay<recovery::CatchupReply>(payloads, rounds, dec, enc); break;
      default: break;
    }
    if (dec.count == 0) {
      uncovered += sent;
      continue;
    }
    dec_sum += dec.mean() * static_cast<double>(sent);
    enc_sum += enc.mean() * static_cast<double>(sent);
    weight += sent;
  }
  if (uncovered > 0) {
    std::fprintf(stderr, "wire replay: %" PRIu64 " sends of types without a decoder skipped\n",
                 uncovered);
  }
  if (weight == 0) return {0.0, 0.0};
  return {enc_sum / static_cast<double>(weight), dec_sum / static_cast<double>(weight)};
}

// EmpiricalLatency::sample on the workload's trace fixture (globe_va.csv
// for the workload that replays none), sweeping replay time across the
// trace so the sliding-window cache refreshes as it does in a run.
double wan_sample_ns(const harness::Scenario& s, const std::string& repo_root) {
  const std::string path =
      s.trace_dir.empty() ? repo_root + "/bench/traces/globe_va.csv" : s.trace_dir;
  const wan::DelayTrace trace = wan::DelayTrace::load(path);
  wan::EmpiricalLatency model(trace.samples_at(0), wan::EmpiricalConfig{});
  Rng rng(s.seed);
  const int calls = 400'000;
  std::int64_t sink = 0;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < calls; ++i) {
    sink += model.sample(TimePoint::epoch() + microseconds(250) * i, rng).nanos();
  }
  const std::int64_t t1 = now_ns();
  if (sink == 0) std::fprintf(stderr, "wan sampling returned only zero delays\n");
  return static_cast<double>(t1 - t0) / calls;
}

bool is_dfp(MessageType t) {
  return t == MessageType::kDfpPropose || t == MessageType::kDfpAcceptNotice ||
         t == MessageType::kDfpCommit || t == MessageType::kDfpClientReply ||
         t == MessageType::kDfpRecoveryAccept || t == MessageType::kDfpRecoveryReply;
}
bool is_dm(MessageType t) {
  return t == MessageType::kDmPropose || t == MessageType::kDmAccept ||
         t == MessageType::kDmAcceptReply || t == MessageType::kDmCommit ||
         t == MessageType::kDmClientReply;
}
bool is_probe(MessageType t) {
  return t == MessageType::kProbe || t == MessageType::kProbeReply;
}
bool is_recovery(MessageType t) {
  return t == MessageType::kCatchupRequest || t == MessageType::kCatchupReply ||
         t == MessageType::kDmRevoke || t == MessageType::kDmRevokeReply ||
         t == MessageType::kDmRevokeResult || t == MessageType::kDfpRangeRecover ||
         t == MessageType::kDfpRangeReply || t == MessageType::kDfpRangeResolve;
}

double dispatch_mean(const Spans& spans, bool (*in_group)(MessageType)) {
  TimeAcc acc;
  for (std::size_t tag = 0; tag < kTags; ++tag) {
    if (in_group(static_cast<MessageType>(tag))) acc.merge(spans.dispatch[tag]);
  }
  return acc.mean();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }


/// Counters of the traced runs, pooled over the workload's traced cases.
struct Totals {
  Spans spans;
  std::uint64_t cmds = 0, submitted = 0, retries = 0, abandoned = 0, inflight = 0;
  std::uint64_t dfp_chosen = 0, dm_chosen = 0, fast = 0, slow = 0;
  std::uint64_t events = 0, steps = 0, packets = 0, bytes = 0, dropped = 0, trace_events = 0;
  std::int64_t step_ns = 0;
  std::vector<double> depth;  // pending events, sampled before every step
  StatAccumulator commit_ms, exec_ms;
  double applied_per_cmd = -1.0;  // minimum over cases and live replicas
  recovery::RecoveryStats recovery;
  double wall_s = 0.0;
  bool all_passed = true;
};

// One traced case: build the assembly, step it to the end of the cooldown,
// and add its counters to the totals. A run that throws keeps what it
// simulated so far.
void trace_case(const harness::Scenario& s, Totals& t) {
  const auto t0 = Clock::now();
  auto a = std::make_unique<Assembly>(s, t.spans);
  const TimePoint end = a->window_end + s.cooldown;
  bool threw = false;
  t.spans.callback_ns = 0;
  try {
    while (a->simulator.now() <= end) {
      t.depth.push_back(static_cast<double>(a->simulator.pending_events()));
      const std::int64_t st = now_ns();
      if (!a->simulator.step()) break;
      t.step_ns += now_ns() - st - std::exchange(t.spans.callback_ns, 0);
      ++t.steps;
    }
  } catch (const std::exception& e) {
    threw = true;
    std::fprintf(stderr, "traced run (seed %" PRIu64 ") threw at %.3f s virtual: %s\n", s.seed,
                 (a->simulator.now() - TimePoint::epoch()).seconds(), e.what());
  }
  t.wall_s += seconds_since(t0);

  std::uint64_t cmds = 0, submitted = 0, abandoned = 0, inflight = 0;
  for (const auto& c : a->clients) {
    cmds += c->committed_count();
    submitted += c->submitted_count();
    abandoned += c->abandoned_count();
    inflight += c->inflight_count();
    t.retries += c->retry_count();
    t.dfp_chosen += c->dfp_chosen();
    t.dm_chosen += c->dm_chosen();
  }
  std::map<std::uint64_t, std::size_t> fingerprints;
  double applied_per_cmd = -1.0;
  for (std::size_t i = 0; i < a->replicas.size(); ++i) {
    const core::Replica& r = *a->replicas[i];
    t.fast += r.dfp_fast_commits();
    t.slow += r.dfp_slow_commits();
    ++fingerprints[r.store().fingerprint()];
    if (a->network.is_crashed(replica_id(i)) || cmds == 0) continue;
    const double applied =
        static_cast<double>(r.store().applied_count()) / static_cast<double>(cmds);
    applied_per_cmd = applied_per_cmd < 0 ? applied : std::min(applied_per_cmd, applied);
  }
  if (applied_per_cmd >= 0) {
    t.applied_per_cmd =
        t.applied_per_cmd < 0 ? applied_per_cmd : std::min(t.applied_per_cmd, applied_per_cmd);
  }
  std::size_t largest_group = 0;
  for (const auto& [fp, n] : fingerprints) largest_group = std::max(largest_group, n);
  t.all_passed = t.all_passed && !threw && submitted == cmds + abandoned + inflight &&
                 largest_group * 2 > a->replicas.size() && applied_per_cmd >= 1.0;

  t.cmds += cmds;
  t.submitted += submitted;
  t.abandoned += abandoned;
  t.inflight += inflight;
  t.events += a->simulator.executed_events();
  t.packets += a->network.packets_sent();
  t.bytes += a->network.bytes_sent();
  t.dropped += a->network.packets_dropped();
  t.trace_events += a->trace->total_recorded();
  t.recovery += a->durable.aggregate();
  // A harness run that throws returns no latency samples, so neither does
  // a traced one; the two commit_p50_ms figures then cover the same runs.
  if (threw) return;
  t.commit_ms.merge(a->collector.commit_ms());
  t.exec_ms.merge(a->collector.exec_ms());
}

}  // namespace

Report run_traced(const Workload& workload, const std::string& repo_root, double seconds) {
  const std::vector<harness::Scenario> cases(
      workload.cases.begin(),
      workload.cases.begin() + static_cast<std::ptrdiff_t>(workload.traced_cases));
  Report report;

  // 1. The traced assembly over the traced cases, each bracketed by two
  //    untraced harness runs of the same case (A-B-A, so drift in machine
  //    speed cancels out of trace.overhead_frac). The untraced runs also give
  //    the virtual commit_p50_ms the assembly should reproduce.
  Totals t;
  double untraced_wall = 0.0;
  std::uint64_t untraced_cmds = 0;
  StatAccumulator untraced_commit;
  const auto untraced = [&](const harness::Scenario& s, bool keep_samples) {
    const auto u0 = Clock::now();
    try {
      const harness::RunResult r = harness::run_protocol(harness::Protocol::kDomino, s);
      untraced_cmds += r.client_committed;
      if (keep_samples) untraced_commit.merge(r.commit_ms);
    } catch (const std::exception& e) {
      if (keep_samples) {
        std::fprintf(stderr, "untraced run (seed %" PRIu64 ") threw: %s\n", s.seed, e.what());
      }
    }
    untraced_wall += seconds_since(u0);
  };
  // The cycle repeats while the time budget lasts; repeats of the same
  // cases leave every per-command count unchanged and add timing samples.
  const auto start = Clock::now();
  for (double cycle_s = 0.0; cycle_s == 0.0 || seconds_since(start) + cycle_s * 1.5 < seconds;) {
    const auto c0 = Clock::now();
    for (const harness::Scenario& s : cases) {
      untraced(s, true);
      trace_case(s, t);
      untraced(s, false);
    }
    cycle_s = seconds_since(c0);
  }
  report.attempted = t.submitted;
  report.failed = t.all_passed ? t.abandoned + t.inflight : t.submitted;
  if (!workload.faulty && !t.all_passed) report.correct = false;

  const double cmds = static_cast<double>(t.cmds);
  const Spans& sp = t.spans;
  const double traced_p50 = percentile_or_zero(t.commit_ms, 50);
  const auto sent = [&sp](MessageType m) {
    return static_cast<double>(sp.sent_by_type[static_cast<std::size_t>(m)]);
  };

  report.add("sim.events_per_cmd", ratio(static_cast<double>(t.events), cmds), "events/cmd");
  report.add("sim.self_ns_per_event",
             ratio(static_cast<double>(t.step_ns), static_cast<double>(t.steps)), "ns");
  report.add("sim.queue_depth_p50", median(t.depth), "events");
  report.add("net.packets_per_cmd", ratio(static_cast<double>(t.packets), cmds), "packets/cmd");
  report.add("net.bytes_per_cmd", ratio(static_cast<double>(t.bytes), cmds), "B/cmd");
  report.add("net.send_ns", sp.send.mean(), "ns");
  report.add("net.delivery_p99_ms", percentile_or_zero(sp.delivery_ms, 99), "ms");
  report.add("net.drop_frac",
             ratio(static_cast<double>(t.dropped), static_cast<double>(t.packets)), "ratio");
  report.add("core.dfp.dispatch_ns", dispatch_mean(sp, is_dfp), "ns");
  report.add("core.dm.dispatch_ns", dispatch_mean(sp, is_dm), "ns");
  report.add("rpc.timer_ns", sp.timer.mean(), "ns");
  report.add("core.dfp_fast_ratio",
             ratio(static_cast<double>(t.fast), static_cast<double>(t.fast + t.slow)), "ratio");
  report.add("core.dfp_share",
             ratio(static_cast<double>(t.dfp_chosen),
                   static_cast<double>(t.dfp_chosen + t.dm_chosen)),
             "ratio");
  report.add("client.retries_per_cmd", ratio(static_cast<double>(t.retries), cmds),
             "retries/cmd");
  report.add("measure.probes_per_cmd",
             ratio(sent(MessageType::kProbe) + sent(MessageType::kProbeReply), cmds), "msgs/cmd");
  report.add("measure.probe.dispatch_ns", dispatch_mean(sp, is_probe), "ns");
  report.add("log.exec_wait_p50_ms", percentile_or_zero(t.exec_ms, 50) - traced_p50, "ms");
  report.add("sm.applied_per_cmd", std::max(t.applied_per_cmd, 0.0), "ratio");
  report.add("recovery.rejoin_ms",
             ratio(static_cast<double>(t.recovery.rejoin_ns_total) / 1e6,
                   static_cast<double>(t.recovery.restarts)),
             "ms");
  report.add("recovery.persisted_bytes_per_cmd",
             ratio(static_cast<double>(t.recovery.persisted_bytes), cmds), "B/cmd");
  report.add("recovery.dispatch_ns", dispatch_mean(sp, is_recovery), "ns");
  report.add("obs.trace_events_per_cmd", ratio(static_cast<double>(t.trace_events), cmds),
             "events/cmd");

  // 2. Codec replay of the payloads captured at the send boundary.
  const auto [encode_ns, decode_ns] = wire_costs(sp);
  report.add("wire.encode_ns", encode_ns, "ns");
  report.add("wire.decode_ns", decode_ns, "ns");

  const double untraced_p50 = percentile_or_zero(untraced_commit, 50);
  report.add("trace.overhead_frac",
             ratio(ratio(t.wall_s, cmds), ratio(untraced_wall, static_cast<double>(untraced_cmds))) -
                 1.0,
             "ratio");
  report.add("traced.commit_p50_ms", traced_p50, "ms");
  report.add("untraced.commit_p50_ms", untraced_p50, "ms");

  // 3. Prediction audit: estimator calibration coverage and oracle regret.
  std::uint64_t covered = 0, probe_samples = 0, regret_samples = 0;
  std::int64_t regret_ns = 0;
  for (harness::Scenario s : cases) {
    s.prediction_audit = true;
    try {
      const harness::RunResult r = harness::run_protocol(harness::Protocol::kDomino, s);
      for (const obs::CalibrationRow& row : r.calibration) {
        covered += row.covered;
        probe_samples += row.samples;
      }
      if (r.predict != nullptr) {
        regret_ns += r.predict->regret_sum_ns();
        regret_samples += r.predict->regret_samples();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "prediction-audit run (seed %" PRIu64 ") threw: %s\n", s.seed,
                   e.what());
    }
  }
  report.add("measure.calib_coverage",
             ratio(static_cast<double>(covered), static_cast<double>(probe_samples)), "ratio");
  report.add("measure.regret_ms",
             ratio(static_cast<double>(regret_ns) / 1e6, static_cast<double>(regret_samples)),
             "ms");

  // 4. WAN delay sampling on the trace fixture.
  report.add("wan.sample_ns", wan_sample_ns(cases.front(), repo_root), "ns");

  std::fprintf(stderr,
               "%s traced: %zu cases, %" PRIu64 " commands, %" PRIu64
               " events, %.2fs wall (untraced %.2fs), commit_p50 traced %.6f ms vs untraced "
               "%.6f ms, check %s\n",
               workload.name.c_str(), cases.size(), t.cmds, t.steps, t.wall_s, untraced_wall,
               traced_p50, untraced_p50, t.all_passed ? "ok" : "FAILED");
  return report;
}

}  // namespace perfbench
