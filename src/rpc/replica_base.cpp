#include "rpc/replica_base.h"

#include <string>
#include <unordered_map>
#include <utility>

namespace domino::rpc {

ReplicaBase::ReplicaBase(NodeId id, std::size_t dc, net::Network& network,
                         std::vector<NodeId> replicas, sim::LocalClock clock)
    : Node(id, dc, network, clock), replicas_(std::move(replicas)) {}

ReplicaBase::ReplicaBase(NodeId id, std::size_t dc, Context& context,
                         std::vector<NodeId> replicas, sim::LocalClock clock)
    : Node(id, dc, context, clock), replicas_(std::move(replicas)) {}

void ReplicaBase::enable_durability(recovery::DurableStore& store) {
  persistor_.bind(store, id(), [this](Duration delay, std::function<void()> fn) {
    after(delay, std::move(fn));
  });
}

void ReplicaBase::restart() {
  persistor_.begin_restart();
  wipe_volatile();
  store_ = sm::KvStore{};
  catching_up_ = true;
  recovery_started_at_ = true_now();
  if (obs_sink().tracing()) {
    obs_sink().record(obs::TraceEvent{
        .at = true_now(),
        .value = static_cast<std::int64_t>(persistor_.epoch()),
        .node = id(),
        .kind = obs::EventKind::kRecoveryStart});
  }
  rebuild_from_durable();
  send_catchup_requests();
}

void ReplicaBase::send_catchup_requests() {
  if (!catching_up_) return;
  if (replicas_.size() <= 1) {
    finish_rejoin();
    return;
  }
  const recovery::CatchupRequest req{persistor_.epoch(), store_.applied_count()};
  for (NodeId r : replicas_) {
    if (r != id()) send(r, req);
  }
  after(kCatchupRetryInterval, [this, epoch = persistor_.epoch()] {
    if (catching_up_ && epoch == persistor_.epoch()) send_catchup_requests();
  });
}

void ReplicaBase::handle_catchup_request(NodeId from, const wire::Payload& payload) {
  // Always served, even while this replica is itself catching up: replying
  // with the current state keeps simultaneous recoveries from deadlocking.
  const auto req = wire::decode_message<recovery::CatchupRequest>(payload);
  recovery::CatchupReply reply;
  reply.epoch = req.epoch;
  reply.applied = store_.applied_count();
  reply.snapshot.reserve(store_.items().size());
  for (const auto& [key, value] : store_.items()) {
    reply.snapshot.push_back(recovery::KvEntry{key, value});
  }
  fill_catchup_reply(reply);
  send(from, reply);
}

void ReplicaBase::handle_catchup_reply(const wire::Payload& payload) {
  const auto msg = wire::decode_message<recovery::CatchupReply>(payload);
  if (msg.epoch != persistor_.epoch()) return;  // reply to an older incarnation
  merge_catchup_reply(msg, payload.size());
  finish_rejoin();
}

void ReplicaBase::install_snapshot(const recovery::CatchupReply& msg, std::size_t bytes) {
  std::unordered_map<std::string, std::string> items;
  items.reserve(msg.snapshot.size());
  for (const auto& e : msg.snapshot) items.emplace(e.key, e.value);
  store_.install_snapshot(std::move(items), msg.applied);
  persistor_.note_catchup_install(bytes, true_now() - recovery_started_at_);
}

void ReplicaBase::finish_rejoin() {
  if (!catching_up_) return;
  catching_up_ = false;
  const Duration took = true_now() - recovery_started_at_;
  persistor_.note_rejoin(took);
  if (obs_sink().tracing()) {
    obs_sink().record(obs::TraceEvent{.at = true_now(),
                                      .value = took.nanos(),
                                      .node = id(),
                                      .kind = obs::EventKind::kRecoveryDone});
  }
}

}  // namespace domino::rpc
