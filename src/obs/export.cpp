#include "obs/export.h"

namespace domino::obs {
namespace {

void append_histogram_json(std::string& out, const Histogram& h) {
  appendf(out, "{\"count\":%llu,\"min\":%lld,\"max\":%lld,\"mean\":%.6g",
           static_cast<unsigned long long>(h.count()), static_cast<long long>(h.min()),
           static_cast<long long>(h.max()), h.mean());
  appendf(out, ",\"p50\":%lld,\"p95\":%lld,\"p99\":%lld",
           static_cast<long long>(h.percentile(50)), static_cast<long long>(h.percentile(95)),
           static_cast<long long>(h.percentile(99)));
  out += ",\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
    if (h.bucket_count(i) == 0) continue;
    if (!first) out += ',';
    first = false;
    appendf(out, "[%lld,%llu]", static_cast<long long>(Histogram::bucket_upper_bound(i)),
             static_cast<unsigned long long>(h.bucket_count(i)));
  }
  out += "]}";
}

std::string node_str(NodeId id) { return id.valid() ? id.to_string() : "-"; }

std::string request_str(const RequestId& id) {
  return id.client.valid() ? id.to_string() : "-";
}

}  // namespace

std::string metrics_to_json(const MetricsRegistry& registry) {
  std::string counters, gauges, histograms;
  registry.visit([&](const std::string& name, const Counter* c, const Gauge* g,
                     const Histogram* h) {
    if (c != nullptr) {
      if (!counters.empty()) counters += ',';
      appendf(counters, "\"%s\":%llu", json_escape(name).c_str(),
               static_cast<unsigned long long>(c->value()));
    } else if (g != nullptr) {
      if (!gauges.empty()) gauges += ',';
      appendf(gauges, "\"%s\":{\"value\":%lld,\"max\":%lld}", json_escape(name).c_str(),
               static_cast<long long>(g->value()), static_cast<long long>(g->max()));
    } else if (h != nullptr) {
      if (!histograms.empty()) histograms += ',';
      appendf(histograms, "\"%s\":", json_escape(name).c_str());
      append_histogram_json(histograms, *h);
    }
  });
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges + "},\"histograms\":{" +
         histograms + "}}";
}

std::string metrics_to_csv(const MetricsRegistry& registry) {
  std::string out = "kind,name,field,value\n";
  registry.visit([&](const std::string& name, const Counter* c, const Gauge* g,
                     const Histogram* h) {
    if (c != nullptr) {
      appendf(out, "counter,%s,value,%llu\n", name.c_str(),
               static_cast<unsigned long long>(c->value()));
    } else if (g != nullptr) {
      appendf(out, "gauge,%s,value,%lld\n", name.c_str(),
               static_cast<long long>(g->value()));
      appendf(out, "gauge,%s,max,%lld\n", name.c_str(), static_cast<long long>(g->max()));
    } else if (h != nullptr) {
      appendf(out, "histogram,%s,count,%llu\n", name.c_str(),
               static_cast<unsigned long long>(h->count()));
      appendf(out, "histogram,%s,min,%lld\n", name.c_str(),
               static_cast<long long>(h->min()));
      appendf(out, "histogram,%s,max,%lld\n", name.c_str(),
               static_cast<long long>(h->max()));
      appendf(out, "histogram,%s,mean,%.6g\n", name.c_str(), h->mean());
      for (const double p : {50.0, 95.0, 99.0}) {
        appendf(out, "histogram,%s,p%.0f,%lld\n", name.c_str(), p,
                 static_cast<long long>(h->percentile(p)));
      }
    }
  });
  return out;
}

std::string trace_to_text(const TraceRecorder& trace) {
  std::string out;
  for (const TraceEvent& e : trace.snapshot()) {
    appendf(out, "%lld %s node=%s peer=%s req=%s detail=%u value=%lld\n",
             static_cast<long long>(e.at.nanos()), event_kind_name(e.kind),
             node_str(e.node).c_str(), node_str(e.peer).c_str(),
             request_str(e.request).c_str(), static_cast<unsigned>(e.detail),
             static_cast<long long>(e.value));
  }
  return out;
}

std::string trace_to_json(const TraceRecorder& trace) {
  std::string out = "[";
  bool first = true;
  for (const TraceEvent& e : trace.snapshot()) {
    if (!first) out += ',';
    first = false;
    appendf(out,
             "{\"at\":%lld,\"kind\":\"%s\",\"node\":\"%s\",\"peer\":\"%s\","
             "\"req\":\"%s\",\"detail\":%u,\"value\":%lld}",
             static_cast<long long>(e.at.nanos()), event_kind_name(e.kind),
             node_str(e.node).c_str(), node_str(e.peer).c_str(),
             request_str(e.request).c_str(), static_cast<unsigned>(e.detail),
             static_cast<long long>(e.value));
  }
  out += ']';
  return out;
}

}  // namespace domino::obs
