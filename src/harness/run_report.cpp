#include "harness/run_report.h"

#include "obs/chrome_trace.h"
#include "obs/export.h"

namespace domino::harness {

namespace {

// Shared formatting helpers (obs/json.h) under the names this file has
// always used.
using obs::append_u64;
using obs::append_i64;

void append_f(std::string& out, const char* fmt, double v) { obs::appendf(out, fmt, v); }

void append_latency_stats(std::string& out, const LatencyStats& s) {
  out += "{\"count\":";
  append_u64(out, s.count);
  out += ",\"mean\":";
  append_f(out, "%.6f", s.mean);
  out += ",\"min\":";
  append_f(out, "%.6f", s.min);
  out += ",\"max\":";
  append_f(out, "%.6f", s.max);
  out += ",\"p50\":";
  append_f(out, "%.6f", s.p50);
  out += ",\"p95\":";
  append_f(out, "%.6f", s.p95);
  out += ",\"p99\":";
  append_f(out, "%.6f", s.p99);
  out += "}";
}

}  // namespace

std::string RunReport::to_json(bool include_trace) const {
  std::string out = "{\n";
  out += "\"protocol\":\"" + obs::json_escape(protocol) + "\",\n";
  out += "\"seed\":";
  append_u64(out, seed);
  out += ",\n\"replicas\":";
  append_u64(out, replicas);
  out += ",\n\"clients\":";
  append_u64(out, clients);
  out += ",\n\"rps_per_client\":";
  append_f(out, "%.3f", rps);
  out += ",\n\"warmup_ms\":";
  append_f(out, "%.3f", warmup.millis());
  out += ",\n\"measure_ms\":";
  append_f(out, "%.3f", measure.millis());
  out += ",\n\"submitted\":";
  append_u64(out, submitted);
  out += ",\n\"committed\":";
  append_u64(out, committed);
  out += ",\n\"throughput_rps\":";
  append_f(out, "%.3f", throughput_rps);
  out += ",\n\"fast_path\":";
  append_u64(out, fast_path);
  out += ",\n\"slow_path\":";
  append_u64(out, slow_path);
  out += ",\n\"packets_sent\":";
  append_u64(out, packets_sent);
  out += ",\n\"bytes_sent\":";
  append_u64(out, bytes_sent);
  out += ",\n\"recovery\":{\"restarts\":";
  append_u64(out, recovery.restarts);
  out += ",\"persisted_records\":";
  append_u64(out, recovery.persisted_records);
  out += ",\"persisted_bytes\":";
  append_u64(out, recovery.persisted_bytes);
  out += ",\"replayed_records\":";
  append_u64(out, recovery.replayed_records);
  out += ",\"replayed_bytes\":";
  append_u64(out, recovery.replayed_bytes);
  out += ",\"catchup_installs\":";
  append_u64(out, recovery.catchup_installs);
  out += ",\"catchup_bytes\":";
  append_u64(out, recovery.catchup_bytes);
  out += ",\"rejoin_ns_total\":";
  append_i64(out, recovery.rejoin_ns_total);
  out += ",\"downtime_ns\":";
  append_i64(out, recovery_downtime_ns);
  out += "}";
  out += ",\n\"latency\":{\"commit_ms\":";
  append_latency_stats(out, latency.commit_ms);
  out += ",\"exec_ms\":";
  append_latency_stats(out, latency.exec_ms);
  out += ",\"tracked\":";
  append_u64(out, latency.tracked);
  out += ",\"committed\":";
  append_u64(out, latency.committed);
  out += "}";
  if (metrics != nullptr) {
    out += ",\n\"metrics\":" + obs::metrics_to_json(*metrics);
  }
  if (trace != nullptr) {
    out += ",\n\"trace_events_recorded\":";
    append_u64(out, trace->total_recorded());
    out += ",\n\"trace_events_retained\":";
    append_u64(out, trace->size());
    out += ",\n\"trace_events_dropped\":";
    append_u64(out, trace->overwritten());
    if (include_trace) {
      out += ",\n\"trace\":" + obs::trace_to_json(*trace);
    }
  }
  if (spans != nullptr) {
    out += ",\n\"spans_recorded\":";
    append_u64(out, spans->spans().size());
    out += ",\n\"span_edges_recorded\":";
    append_u64(out, spans->edges().size());
    out += ",\n\"spans_dropped\":";
    append_u64(out, spans->dropped_spans());
    out += ",\n\"span_edges_dropped\":";
    append_u64(out, spans->dropped_edges());
    out += ",\n\"critical_paths\":";
    append_u64(out, critical_paths.size());
  }
  if (predict != nullptr) {
    // Aggregates only; the per-decision rows live in predict_csv().
    out += ",\n\"predict\":{\"decisions\":";
    append_u64(out, predict->decisions());
    out += ",\"reconciled\":";
    append_u64(out, predict->reconciled());
    out += ",\"pending\":";
    append_u64(out, predict->pending());
    out += ",\"dropped\":";
    append_u64(out, predict->dropped());
    out += ",\"fast_path\":";
    append_u64(out, predict->fast_path());
    out += ",\"slow_path\":";
    append_u64(out, predict->slow_path());
    out += ",\"dm_commits\":";
    append_u64(out, predict->dm_commits());
    out += ",\"failovers\":";
    append_u64(out, predict->failovers());
    out += ",\"adaptive_overrides\":";
    append_u64(out, predict->adaptive_overrides());
    out += ",\"error_samples\":";
    append_u64(out, predict->error_samples());
    out += ",\"error_abs_sum_ns\":";
    append_i64(out, predict->error_abs_sum_ns());
    out += ",\"regret_samples\":";
    append_u64(out, predict->regret_samples());
    out += ",\"regret_sum_ns\":";
    append_i64(out, predict->regret_sum_ns());
    out += ",\"regret_max_ns\":";
    append_i64(out, predict->regret_max_ns());
    out += "}";
    out += ",\n\"calibration\":{\"series\":";
    append_u64(out, calibration.size());
    std::uint64_t samples = 0;
    std::uint64_t covered = 0;
    for (const obs::CalibrationRow& row : calibration) {
      samples += row.samples;
      covered += row.covered;
    }
    out += ",\"samples\":";
    append_u64(out, samples);
    out += ",\"covered\":";
    append_u64(out, covered);
    out += "}";
  }
  if (timeseries != nullptr) {
    out += ",\n\"timeline\":{\"interval_ms\":";
    append_f(out, "%.3f", timeseries_interval.millis());
    out += ",\"series\":";
    obs::append_timeseries_json(out, *timeseries);
    out += "}";
    out += ",\n\"slo\":";
    obs::append_slo_json(out, slo);
  }
  out += "\n}\n";
  return out;
}

void RunReport::write(const std::string& path, bool include_trace) const {
  obs::write_file(path, to_json(include_trace));
}

std::string RunReport::chrome_trace() const {
  return obs::chrome_trace_json(spans.get(), trace.get());
}

std::string RunReport::command_csv() const {
  return obs::paths_to_csv(critical_paths, protocol);
}

std::string RunReport::predict_csv() const {
  static const std::vector<obs::DecisionRecord> kEmpty;
  return obs::decisions_to_csv(predict != nullptr ? predict->records() : kEmpty, protocol);
}

std::string RunReport::calibration_csv() const { return obs::calibration_to_csv(calibration); }

std::string RunReport::timeline_csv() const {
  if (timeseries == nullptr) {
    return "window,start_ns,end_ns,kind,name,field,value\n";
  }
  return obs::timeseries_to_csv(*timeseries);
}

RunReport make_report(Protocol protocol, const Scenario& scenario, const RunResult& result) {
  RunReport r;
  r.protocol = protocol_name(protocol);
  r.seed = scenario.seed;
  r.replicas = scenario.replica_dcs.size();
  r.clients = scenario.client_dcs.size();
  r.rps = scenario.rps;
  r.warmup = scenario.warmup;
  r.measure = scenario.measure;
  r.submitted = result.submitted;
  r.committed = result.committed;
  r.throughput_rps = result.throughput_rps();
  r.fast_path = result.fast_path;
  r.slow_path = result.slow_path;
  r.packets_sent = result.packets_sent;
  r.bytes_sent = result.bytes_sent;
  r.recovery = result.recovery;
  r.recovery_downtime_ns = result.recovery_downtime_ns;
  r.latency = result.latency;
  r.metrics = result.metrics;
  r.trace = result.trace;
  r.spans = result.spans;
  r.critical_paths = result.critical_paths;
  r.predict = result.predict;
  r.calibration = result.calibration;
  r.timeseries = result.timeseries;
  r.slo = result.slo;
  r.timeseries_interval = scenario.timeseries_interval;
  return r;
}

}  // namespace domino::harness
