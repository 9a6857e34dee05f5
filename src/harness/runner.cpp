#include "harness/runner.h"

#include <functional>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "common/rng.h"
#include "core/replica.h"
#include "epaxos/client.h"
#include "epaxos/replica.h"
#include "fastpaxos/client.h"
#include "fastpaxos/replica.h"
#include "harness/collector.h"
#include "mencius/client.h"
#include "mencius/replica.h"
#include "net/network.h"
#include "obs/sink.h"
#include "paxos/client.h"
#include "paxos/replica.h"
#include "rpc/client_base.h"
#include "rpc/replica_base.h"
#include "sim/simulator.h"

namespace domino::harness {

std::string protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kMultiPaxos: return "Multi-Paxos";
    case Protocol::kMencius: return "Mencius";
    case Protocol::kEPaxos: return "EPaxos";
    case Protocol::kFastPaxos: return "Fast Paxos";
    case Protocol::kDomino: return "Domino";
  }
  return "?";
}

double RunResult::throughput_rps() const {
  if (measure_window <= Duration::zero()) return 0.0;
  return static_cast<double>(committed) / measure_window.seconds();
}

std::size_t closest_replica(const net::Topology& topology,
                            const std::vector<std::size_t>& replica_dcs,
                            std::size_t client_dc) {
  std::size_t best = 0;
  Duration best_rtt = Duration::max();
  for (std::size_t i = 0; i < replica_dcs.size(); ++i) {
    const Duration rtt = topology.rtt(client_dc, replica_dcs[i]);
    if (rtt < best_rtt) {
      best_rtt = rtt;
      best = i;
    }
  }
  return best;
}

namespace {

NodeId replica_id(std::size_t i) { return NodeId{static_cast<std::uint32_t>(i)}; }
NodeId client_id(std::size_t i) { return NodeId{static_cast<std::uint32_t>(1000 + i)}; }

struct Env {
  explicit Env(const Scenario& s)
      : scenario(s),
        network(simulator, s.topology, s.seed),
        clock_rng(s.seed ^ 0x5DEECE66Dull),
        window_start(TimePoint::epoch() + s.warmup),
        window_end(window_start + s.measure),
        collector(window_start, window_end, s.client_dcs.size()),
        durable(recovery::DurableConfig{s.sync_latency}) {
    if (s.replica_dcs.empty()) throw std::invalid_argument("Scenario: no replicas");
    if (s.leader_index >= s.replica_dcs.size()) {
      throw std::invalid_argument("Scenario: bad leader index");
    }
    network.use_default_links(s.jitter);
    if (s.wan_trace != nullptr) {
      wan::apply_trace(*s.wan_trace, network, s.wan_config);
    } else if (!s.trace_dir.empty()) {
      const wan::DelayTrace loaded = wan::DelayTrace::load(s.trace_dir);
      wan::apply_trace(loaded, network, s.wan_config);
    }
    if (!s.faults.empty()) network.install_faults(s.faults);
    if (s.observability) {
      metrics = std::make_shared<obs::MetricsRegistry>();
      trace = std::make_shared<obs::TraceRecorder>(s.trace_capacity);
      if (s.command_spans) {
        spans = std::make_shared<obs::SpanStore>(s.span_capacity, s.span_capacity);
      }
      if (s.prediction_audit) {
        predict = std::make_shared<obs::PredictionAudit>(s.predict_capacity);
        predict->bind_metrics(metrics.get());
      }
      const obs::Sink sink{metrics.get(), trace.get(), spans.get(), predict.get()};
      simulator.bind_obs(sink);
      network.bind_obs(sink);  // nodes pick the sink up at construction
      durable.bind_obs(sink);
      if (s.timeseries_interval > Duration::zero()) {
        timeseries = std::make_shared<obs::Timeseries>(s.timeseries_max_windows);
      }
    }
    for (const std::size_t idx : s.weakened_replicas) {
      if (idx >= s.replica_dcs.size()) {
        throw std::invalid_argument("Scenario: bad weakened replica index");
      }
      durable.weaken(replica_id(idx));
    }
    if (s.amnesia_crashes) {
      // Dispatch every scheduled recover through the restart table: the
      // recover hook (FIFO channel reset) has already run when this fires.
      network.set_restart_hook([this](NodeId node) {
        const auto it = restarters.find(node);
        if (it != restarters.end()) it->second();
      });
    }
  }

  /// Durability is on whenever anything needs the store: amnesiac crashes,
  /// a non-zero sync latency, or a deliberately weakened log.
  [[nodiscard]] bool durability() const {
    return scenario.amnesia_crashes || scenario.sync_latency > Duration::zero() ||
           !scenario.weakened_replicas.empty();
  }

  /// Bind `replica` to the durable store and register its amnesiac-restart
  /// action. Call before moving the owning unique_ptr into the vector is
  /// fine — the pointee address is stable.
  void enable_recovery(rpc::ReplicaBase& replica) {
    if (!durability()) return;
    replica.enable_durability(durable);
    if (scenario.amnesia_crashes) {
      restarters[replica.id()] = [r = &replica] { r->restart(); };
    }
  }

  sim::LocalClock next_clock() {
    const double stddev = static_cast<double>(scenario.clock_offset_stddev.nanos());
    return sim::LocalClock{Duration{static_cast<std::int64_t>(clock_rng.normal(0, stddev))},
                           /*drift_ppm=*/clock_rng.normal(0, 5.0)};
  }

  /// Configure capacity modelling on a node if the scenario asks for it.
  void apply_capacity(NodeId id, bool is_replica) {
    if (is_replica && scenario.replica_service_time > Duration::zero()) {
      network.set_receive_service_time(id, scenario.replica_service_time);
    }
    if (scenario.node_egress_bps > 0.0) {
      network.set_egress_bandwidth_bps(id, scenario.node_egress_bps);
    }
  }

  /// Start load on the clients, run the full schedule, fill common results.
  void drive(const std::vector<std::unique_ptr<rpc::ClientBase>>& clients, RunResult& result) {
    workloads.reserve(clients.size());
    for (std::size_t i = 0; i < clients.size(); ++i) {
      workloads.push_back(std::make_unique<sm::WorkloadGenerator>(
          scenario.workload, scenario.seed * 7919 + i));
      rpc::ClientBase* client = clients[i].get();
      if (scenario.client_request_timeout > Duration::zero()) {
        client->set_request_timeout(scenario.client_request_timeout,
                                    scenario.client_max_retries);
        client->set_retry_backoff(scenario.client_backoff_multiplier,
                                  scenario.client_backoff_cap,
                                  scenario.client_backoff_jitter,
                                  scenario.seed * 40503 + i);
      }
      client->set_send_hook([this, i](const RequestId& id, TimePoint at) {
        collector.on_send(i, id, at);
      });
      client->set_commit_hook(
          [this, i](const RequestId& id, TimePoint sent, TimePoint committed) {
            collector.on_commit(i, id, sent, committed);
          });
      // Stagger client start to avoid synchronized request bursts.
      const Duration stagger = milliseconds(1) * static_cast<std::int64_t>(i);
      simulator.schedule_after(stagger, [this, client, i] {
        client->start_load(*workloads[i], scenario.rps);
      });
      simulator.schedule_at(window_end, [client] { client->stop_load(); });
    }
    if (timeseries != nullptr) {
      // Read-only sampler on the virtual-time queue: snapshots metric
      // deltas every interval, so enabling it cannot perturb the protocols.
      sampler.start(simulator, scenario.timeseries_interval, scenario.timeseries_interval,
                    [this] { timeseries->sample(*metrics, simulator.now()); });
    }
    simulator.run_until(window_end + scenario.cooldown);
    if (timeseries != nullptr) {
      sampler.stop();
      // Flush the tail: whatever accumulated since the last periodic tick
      // becomes the final (possibly short) window.
      timeseries->sample(*metrics, simulator.now());
    }

    result.commit_ms = collector.commit_ms();
    result.exec_ms = collector.exec_ms();
    result.commit_per_client.reserve(clients.size());
    for (std::size_t i = 0; i < clients.size(); ++i) {
      result.commit_per_client.push_back(collector.commit_ms_of(i));
    }
    for (const auto& c : clients) {
      result.submitted += c->submitted_count();
      result.client_committed += c->committed_count();
      result.client_retries += c->retry_count();
      result.client_abandoned += c->abandoned_count();
      result.client_inflight_end += c->inflight_count();
    }
    result.committed = collector.committed_count();
    result.packets_sent = network.packets_sent();
    result.bytes_sent = network.bytes_sent();
    result.packets_dropped = network.packets_dropped();
    result.drops_crashed_source = network.packets_dropped(net::DropReason::kCrashedSource);
    result.drops_crashed_dest = network.packets_dropped(net::DropReason::kCrashedDest);
    result.drops_partition = network.packets_dropped(net::DropReason::kPartition);
    result.fault_digest = network.fault().digest();
    result.fault_transitions = network.fault().transitions();
    result.recovery = durable.aggregate();
    result.recovery_downtime_ns = network.fault().total_downtime().nanos();
    result.measure_window = scenario.measure;
    result.latency = collector.summarize();
    result.metrics = metrics;
    result.trace = trace;
    result.spans = spans;
    result.predict = predict;
    if (trace != nullptr && metrics != nullptr) {
      // Surface ring-buffer overwrite: dropped events must be visible, not
      // silent.
      metrics->counter("obs.trace.dropped_events").inc(trace->overwritten());
    }
    if (spans != nullptr) {
      if (metrics != nullptr) {
        metrics->counter("obs.span.dropped_spans").inc(spans->dropped_spans());
        metrics->counter("obs.span.dropped_edges").inc(spans->dropped_edges());
      }
      result.critical_paths = obs::critical_paths(*spans);
      if (metrics != nullptr) obs::accumulate_phases(result.critical_paths, *metrics);
    }
    result.timeseries = timeseries;
    if (timeseries != nullptr) {
      if (metrics != nullptr && timeseries->dropped_windows() > 0) {
        metrics->counter("obs.timeseries.dropped_windows")
            .inc(timeseries->dropped_windows());
      }
      obs::SloConfig cfg = scenario.slo;
      if (cfg.evaluate_until == TimePoint::max()) cfg.evaluate_until = window_end;
      result.slo = obs::evaluate_slo(*timeseries, cfg, fault_instants());
      if (metrics != nullptr) obs::publish_slo_metrics(result.slo, *metrics);
    }
  }

  /// Convert the scenario's fault schedule into the SLO engine's
  /// layering-neutral instants (obs cannot see net/fault.h).
  [[nodiscard]] std::vector<obs::FaultInstant> fault_instants() const {
    std::vector<obs::FaultInstant> out;
    out.reserve(scenario.faults.size());
    for (const net::FaultEvent& e : scenario.faults.events()) {
      const char* kind = "?";
      switch (e.kind) {
        case net::FaultEvent::Kind::kCrash: kind = "crash"; break;
        case net::FaultEvent::Kind::kRecover: kind = "recover"; break;
        case net::FaultEvent::Kind::kPartition: kind = "partition"; break;
        case net::FaultEvent::Kind::kHeal: kind = "heal"; break;
        case net::FaultEvent::Kind::kDegradeStart: kind = "degrade_start"; break;
        case net::FaultEvent::Kind::kDegradeEnd: kind = "degrade_end"; break;
        case net::FaultEvent::Kind::kRouteChange: kind = "route_change"; break;
      }
      out.push_back(obs::FaultInstant{e.at, kind, e.node});
    }
    return out;
  }

  /// Record each replica's state-machine fingerprint (chaos convergence
  /// checks compare these across the live majority).
  void collect_stores(const std::vector<std::unique_ptr<rpc::ReplicaBase>>& replicas,
                      RunResult& result) const {
    result.replica_store_fingerprints.reserve(replicas.size());
    result.replica_applied_counts.reserve(replicas.size());
    for (const auto& r : replicas) {
      result.replica_store_fingerprints.push_back(r->store().fingerprint());
      result.replica_applied_counts.push_back(r->store().applied_count());
    }
  }

  const Scenario& scenario;
  // Declared before the simulator/network/nodes so every obs handle stays
  // valid for the users' whole lifetime (members destroy in reverse order).
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::TraceRecorder> trace;
  std::shared_ptr<obs::SpanStore> spans;
  std::shared_ptr<obs::PredictionAudit> predict;
  std::shared_ptr<obs::Timeseries> timeseries;
  sim::Simulator simulator;
  sim::PeriodicTimer sampler;
  net::Network network;
  Rng clock_rng;
  TimePoint window_start;
  TimePoint window_end;
  LatencyCollector collector;
  std::vector<std::unique_ptr<sm::WorkloadGenerator>> workloads;
  recovery::DurableStore durable;  // outlives replicas (run_plan locals)
  std::unordered_map<NodeId, std::function<void()>> restarters;
};

/// What a factory needs to build one node.
struct NodeSlot {
  NodeId id;
  std::size_t dc;
  const std::vector<NodeId>& replicas;  // every replica id, in scenario order
  net::Network& network;
  sim::LocalClock clock;
};

struct Deployment {
  std::vector<std::unique_ptr<rpc::ReplicaBase>> replicas;
  std::vector<std::unique_ptr<rpc::ClientBase>> clients;
};

/// The protocol-specific parts of a run: how to build a replica and a
/// client, and (optionally) which protocol counters to copy into the result
/// once the run is over.
struct ProtocolPlan {
  std::function<std::unique_ptr<rpc::ReplicaBase>(const NodeSlot&)> replica;
  std::function<std::unique_ptr<rpc::ClientBase>(const NodeSlot&)> client;
  std::function<void(const Deployment&, RunResult&)> tail;
};

/// Deploy and run one protocol. Clocks are drawn replicas first, then
/// clients, and every node is wired in the order construct -> attach ->
/// durability -> start -> capacity -> execute hook, so a seed fixes the run.
RunResult run_plan(const Scenario& s, const ProtocolPlan& plan) {
  Env env(s);
  RunResult result;

  std::vector<NodeId> rids;
  for (std::size_t i = 0; i < s.replica_dcs.size(); ++i) rids.push_back(replica_id(i));

  Deployment d;
  for (std::size_t i = 0; i < s.replica_dcs.size(); ++i) {
    auto r = plan.replica(NodeSlot{rids[i], s.replica_dcs[i], rids, env.network,
                                   env.next_clock()});
    r->attach();
    env.enable_recovery(*r);
    r->start();
    env.apply_capacity(rids[i], true);
    r->set_execute_hook([&env](const RequestId& id, TimePoint at) {
      env.collector.on_execute(id, at);
    });
    d.replicas.push_back(std::move(r));
  }
  for (std::size_t i = 0; i < s.client_dcs.size(); ++i) {
    auto c = plan.client(NodeSlot{client_id(i), s.client_dcs[i], rids, env.network,
                                  env.next_clock()});
    c->attach();
    c->start();
    env.apply_capacity(client_id(i), false);
    d.clients.push_back(std::move(c));
  }

  env.drive(d.clients, result);
  env.collect_stores(d.replicas, result);
  if (plan.tail) plan.tail(d, result);
  return result;
}

/// The replica a Mencius/EPaxos client is pre-configured to talk to.
NodeId closest_replica_id(const Scenario& s, const NodeSlot& client) {
  return client.replicas[closest_replica(s.topology, s.replica_dcs, client.dc)];
}

ProtocolPlan multipaxos_plan(const Scenario& s) {
  return {
      [&s](const NodeSlot& n) {
        return std::make_unique<paxos::Replica>(n.id, n.dc, n.network, n.replicas,
                                                n.replicas[s.leader_index], n.clock);
      },
      [&s](const NodeSlot& n) {
        return std::make_unique<paxos::Client>(n.id, n.dc, n.network,
                                               n.replicas[s.leader_index], n.clock);
      },
      nullptr};
}

ProtocolPlan mencius_plan(const Scenario& s) {
  return {
      [](const NodeSlot& n) {
        return std::make_unique<mencius::Replica>(n.id, n.dc, n.network, n.replicas,
                                                  milliseconds(10), n.clock);
      },
      [&s](const NodeSlot& n) {
        return std::make_unique<mencius::Client>(n.id, n.dc, n.network,
                                                 closest_replica_id(s, n), n.clock);
      },
      nullptr};
}

ProtocolPlan epaxos_plan(const Scenario& s) {
  return {
      [](const NodeSlot& n) {
        return std::make_unique<epaxos::Replica>(n.id, n.dc, n.network, n.replicas, n.clock);
      },
      [&s](const NodeSlot& n) {
        return std::make_unique<epaxos::Client>(n.id, n.dc, n.network,
                                                closest_replica_id(s, n), n.clock);
      },
      [](const Deployment& d, RunResult& result) {
        for (const auto& r : d.replicas) {
          const auto& replica = static_cast<const epaxos::Replica&>(*r);
          result.fast_path += replica.fast_path_commits();
          result.slow_path += replica.slow_path_commits();
        }
      }};
}

ProtocolPlan fastpaxos_plan(const Scenario& s) {
  return {
      [&s](const NodeSlot& n) {
        return std::make_unique<fastpaxos::Replica>(n.id, n.dc, n.network, n.replicas,
                                                    n.replicas[s.leader_index],
                                                    milliseconds(500), n.clock);
      },
      [](const NodeSlot& n) {
        return std::make_unique<fastpaxos::Client>(n.id, n.dc, n.network, n.replicas,
                                                   n.clock);
      },
      [](const Deployment& d, RunResult& result) {
        for (const auto& r : d.replicas) {
          const auto& replica = static_cast<const fastpaxos::Replica&>(*r);
          result.fast_path += replica.fast_commits();
          result.slow_path += replica.slow_commits();
        }
      }};
}

ProtocolPlan domino_plan(const Scenario& s) {
  return {
      [&s](const NodeSlot& n) {
        core::ReplicaConfig rc;
        rc.prober.percentile = s.measurement_percentile;
        rc.prober.probe_interval = s.probe_interval;
        rc.prober.window = s.measurement_window;
        rc.all_replicas_learn = s.domino_all_learners;
        return std::make_unique<core::Replica>(n.id, n.dc, n.network, n.replicas,
                                               n.replicas[s.leader_index], rc, n.clock);
      },
      [&s](const NodeSlot& n) {
        core::ClientConfig cc;
        cc.prober.percentile = s.measurement_percentile;
        cc.prober.probe_interval = s.probe_interval;
        cc.prober.window = s.measurement_window;
        cc.additional_delay = s.additional_delay;
        cc.mode = s.domino_mode;
        cc.adaptive = s.domino_adaptive;
        cc.timestamp_shard_space = s.domino_timestamp_shard_space;
        return std::make_unique<core::Client>(n.id, n.dc, n.network, n.replicas, cc,
                                              n.clock);
      },
      [&s](const Deployment& d, RunResult& result) {
        for (const auto& r : d.replicas) {
          const auto& replica = static_cast<const core::Replica&>(*r);
          result.fast_path += replica.dfp_fast_commits();
          result.slow_path += replica.dfp_slow_commits();
        }
        for (const auto& c : d.clients) {
          const auto& client = static_cast<const core::Client&>(*c);
          result.dfp_chosen += client.dfp_chosen();
          result.dm_chosen += client.dm_chosen();
        }
        if (s.prediction_audit && s.observability) {
          // Estimator calibration: every prober's predicted-vs-realized
          // score card, replicas first then clients, in construction order
          // (each prober's targets are already in registered order) —
          // deterministic.
          for (const auto& r : d.replicas) {
            const auto rows = obs::calibration_rows(
                static_cast<const core::Replica&>(*r).prober().calibration());
            result.calibration.insert(result.calibration.end(), rows.begin(), rows.end());
          }
          for (const auto& c : d.clients) {
            const auto rows = obs::calibration_rows(
                static_cast<const core::Client&>(*c).prober().calibration());
            result.calibration.insert(result.calibration.end(), rows.begin(), rows.end());
          }
        }
      }};
}

}  // namespace

RunResult run_protocol(Protocol protocol, const Scenario& scenario) {
  switch (protocol) {
    case Protocol::kMultiPaxos: return run_plan(scenario, multipaxos_plan(scenario));
    case Protocol::kMencius: return run_plan(scenario, mencius_plan(scenario));
    case Protocol::kEPaxos: return run_plan(scenario, epaxos_plan(scenario));
    case Protocol::kFastPaxos: return run_plan(scenario, fastpaxos_plan(scenario));
    case Protocol::kDomino: return run_plan(scenario, domino_plan(scenario));
  }
  throw std::logic_error("run_protocol: unknown protocol");
}

}  // namespace domino::harness
