#include "paxos/replica.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "paxos/messages.h"
#include "recovery/records.h"

namespace domino::paxos {

Replica::Replica(NodeId id, std::size_t dc, net::Network& network,
                 std::vector<NodeId> replicas, NodeId leader, sim::LocalClock clock)
    : rpc::ReplicaBase(id, dc, network, std::move(replicas), clock), leader_(leader) {
  obs_accepts_ = obs_sink().counter("paxos.accepts");
  obs_commits_ = obs_sink().counter("paxos.commits");
  obs_executed_ = obs_sink().counter("paxos.executed");
}

void Replica::on_packet(const net::Packet& packet) {
  switch (wire::peek_type(packet.payload)) {
    case wire::MessageType::kPaxosClientRequest:
      handle_client_request(packet);
      break;
    case wire::MessageType::kPaxosAccept:
      handle_accept(packet.src, packet.payload);
      break;
    case wire::MessageType::kPaxosAcceptReply:
      handle_accept_reply(packet.payload);
      break;
    case wire::MessageType::kPaxosCommit:
      handle_commit(packet.payload);
      break;
    case wire::MessageType::kCatchupRequest:
      handle_catchup_request(packet.src, packet.payload);
      break;
    case wire::MessageType::kCatchupReply:
      handle_catchup_reply(packet.payload);
      break;
    default:
      break;  // not a Multi-Paxos message; ignore
  }
}

void Replica::handle_client_request(const net::Packet& packet) {
  if (!is_leader()) return;  // clients are configured to talk to the leader only
  if (catching_up()) return;  // not rejoined yet; the client's retry will land
  const auto req = wire::decode_message<ClientRequest>(packet.payload);
  const std::uint64_t index = next_index_++;
  log_.accept(index, req.command);
  rounds_[index] = Round{1, open_wait_span("paxos_quorum_wait")};
  const sm::Command command = req.command;
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] { return wire::encode(recovery::IndexAccept{index, command, command.id.client}); },
      [this, index, command] {
        const Accept msg{index, command};
        for (NodeId r : replicas_) {
          if (r != id()) send(r, msg);
        }
      });
}

void Replica::handle_accept(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<Accept>(payload);
  if (log_.is_committed(msg.index)) {
    // Re-proposal from a restarted leader for an entry this follower already
    // learned committed: the promise is already durable, just re-ack.
    send(from, AcceptReply{msg.index});
    return;
  }
  log_.accept(msg.index, msg.command);
  obs_accepts_.inc();
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] {
        return wire::encode(recovery::IndexAccept{msg.index, msg.command, std::nullopt});
      },
      [this, from, index = msg.index] { send(from, AcceptReply{index}); });
}

void Replica::handle_accept_reply(const wire::Payload& payload) {
  if (!is_leader()) return;
  const auto msg = wire::decode_message<AcceptReply>(payload);
  auto it = rounds_.find(msg.index);
  if (it == rounds_.end()) return;  // already committed
  if (++it->second.acks < measure::majority(replicas_.size())) return;

  close_wait_span(it->second.wait_span);
  rounds_.erase(it);
  log_.commit(msg.index);
  ++committed_;
  obs_commits_.inc();

  const auto* entry = log_.entry(msg.index);
  if (entry != nullptr) {
    // Persist the commit decision, then reply to the client and notify
    // followers (asynchronously, i.e. the client does not wait for follower
    // commits). The reply is what makes the commit externally visible, so
    // it must not leave this node before the decision is durable.
    const std::uint64_t index = msg.index;
    const sm::Command command = entry->command;
    persistor_.persist(
        recovery::RecordTag::kCommitted,
        [&] { return wire::encode(recovery::IndexEntry{index, command}); },
        [this, index, command] {
          send(command.id.client, ClientReply{command.id});
          for (NodeId r : replicas_) {
            if (r != id()) send(r, Commit{index, command});
          }
        });
  }
  execute_ready();
}

void Replica::handle_commit(const wire::Payload& payload) {
  const auto msg = wire::decode_message<Commit>(payload);
  // The command rides on the Commit, so a follower that missed the Accept
  // (dropped while it was crashed or partitioned) still materializes the
  // entry instead of carrying a permanent hole.
  log_.commit(msg.index, msg.command);
  // Nothing is externalized on this path, so the persist is fire-and-forget.
  persistor_.persist(recovery::RecordTag::kCommitted, [&] {
    return wire::encode(recovery::IndexEntry{msg.index, msg.command});
  });
  execute_ready();
}

void Replica::wipe_volatile() {
  for (const auto& [index, round] : rounds_) {
    (void)index;
    close_wait_span(round.wait_span);
  }
  rounds_.clear();
  log_ = log::IndexLog{};
  next_index_ = 0;
  committed_ = 0;
}

void Replica::rebuild_from_durable() {
  persistor_.replay([this](const recovery::DurableRecord& rec) {
    switch (rec.tag) {
      case recovery::RecordTag::kAccepted: {
        auto r = wire::decode<recovery::IndexAccept>(rec.body);
        // A later kCommitted record (or a duplicate accept from a previous
        // incarnation) may already have resolved this index.
        if (!log_.is_committed(r.index)) log_.accept(r.index, std::move(r.command));
        next_index_ = std::max(next_index_, r.index + 1);
        break;
      }
      case recovery::RecordTag::kCommitted: {
        auto r = wire::decode<recovery::IndexEntry>(rec.body);
        log_.commit(r.index, std::move(r.command));
        next_index_ = std::max(next_index_, r.index + 1);
        break;
      }
      default:
        break;  // Multi-Paxos writes no other tags
    }
  });
  execute_ready();

  // Accepted-but-uncommitted leader entries lost their quorum tallies with
  // the crash; re-propose them (same index, same value — followers simply
  // re-ack) so the execution frontier cannot stall behind them.
  if (is_leader()) {
    for (std::uint64_t index = log_.execution_frontier(); index < next_index_; ++index) {
      const auto* e = log_.entry(index);
      if (e == nullptr || e->status != log::EntryStatus::kAccepted) continue;
      rounds_[index] = Round{};
      const Accept msg{index, e->command};
      for (NodeId r : replicas_) {
        if (r != id()) send(r, msg);
      }
    }
  }
}

void Replica::fill_catchup_reply(recovery::CatchupReply& reply) {
  reply.frontier = static_cast<std::int64_t>(log_.execution_frontier());
  for (auto& [index, command] : log_.committed_unexecuted()) {
    reply.entries.push_back(recovery::CatchupEntry{
        static_cast<std::int64_t>(index), 0, std::move(command), {}});
  }
}

void Replica::merge_catchup_reply(const recovery::CatchupReply& msg, std::size_t bytes) {
  if (msg.frontier > static_cast<std::int64_t>(log_.execution_frontier())) {
    install_snapshot(msg, bytes);
    log_.fast_forward(static_cast<std::uint64_t>(msg.frontier));
  }
  for (const auto& e : msg.entries) {
    if (e.pos < static_cast<std::int64_t>(log_.execution_frontier())) continue;
    log_.commit(static_cast<std::uint64_t>(e.pos), e.command);
  }
  execute_ready();
}

void Replica::execute_ready() {
  for (auto& [index, command] : log_.drain_executable()) {
    (void)index;
    store_.apply(command);
    obs_executed_.inc();
    notify_executed(command.id);
  }
}

}  // namespace domino::paxos
