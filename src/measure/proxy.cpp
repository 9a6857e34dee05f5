#include "measure/proxy.h"

namespace domino::measure {

Proxy::Proxy(NodeId id, std::size_t dc, net::Network& network, std::vector<NodeId> replicas,
             ProberConfig config, sim::LocalClock clock)
    : rpc::Node(id, dc, network, clock),
      replicas_(std::move(replicas)),
      prober_(*this, replicas_, config) {}

ProxyReport Proxy::snapshot() const {
  ProxyReport report;
  report.percentile = prober_.config().percentile;
  for (NodeId r : replicas_) {
    ProxyReport::Entry e;
    e.replica = r;
    e.failed = prober_.looks_failed(r);
    e.stale = prober_.is_stale(r);
    if (!e.failed) {
      e.rtt = prober_.rtt_estimate(r);
      e.owd = prober_.owd_estimate(r);
      e.replication_latency = prober_.replication_latency_of(r);
    }
    report.entries.push_back(e);
  }
  return report;
}

void Proxy::on_packet(const net::Packet& packet) {
  switch (wire::peek_type(packet.payload)) {
    case wire::MessageType::kProbeReply:
      prober_.on_probe_reply(packet.src,
                             wire::decode_message<ProbeReply>(packet.payload));
      break;
    case wire::MessageType::kProxyQuery:
      ++queries_served_;
      send(packet.src, snapshot());
      break;
    default:
      break;
  }
}

void ProxyFeed::update(const ProxyReport& report) {
  percentile_ = report.percentile;
  for (const auto& e : report.entries) table_[e.replica] = e;
  last_update_ = owner_.true_now();
  ever_updated_ = true;
  ++updates_;
}

bool ProxyFeed::fresh() const {
  return ever_updated_ && owner_.true_now() - last_update_ <= staleness_;
}

Duration ProxyFeed::rtt_estimate(NodeId target, double) const {
  if (!fresh()) return Duration::max();
  auto it = table_.find(target);
  return it == table_.end() || it->second.failed ? Duration::max() : it->second.rtt;
}

Duration ProxyFeed::owd_estimate(NodeId target, double) const {
  if (!fresh()) return Duration::max();
  auto it = table_.find(target);
  return it == table_.end() || it->second.failed ? Duration::max() : it->second.owd;
}

Duration ProxyFeed::replication_latency_of(NodeId target) const {
  if (!fresh()) return Duration::max();
  auto it = table_.find(target);
  return it == table_.end() || it->second.failed ? Duration::max()
                                                 : it->second.replication_latency;
}

bool ProxyFeed::looks_failed(NodeId target) const {
  if (!fresh()) return true;
  auto it = table_.find(target);
  return it == table_.end() || it->second.failed;
}

bool ProxyFeed::is_stale(NodeId target) const {
  if (!fresh()) return true;
  auto it = table_.find(target);
  return it == table_.end() || it->second.stale;
}

}  // namespace domino::measure
