#include "mencius/replica.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "mencius/messages.h"
#include "recovery/records.h"

namespace domino::mencius {

Replica::Replica(NodeId id, std::size_t dc, net::Network& network,
                 std::vector<NodeId> replicas, Duration heartbeat_interval,
                 sim::LocalClock clock)
    : rpc::ReplicaBase(id, dc, network, std::move(replicas), clock),
      heartbeat_interval_(heartbeat_interval),
      skip_frontier_seen_(replicas_.size(), 0) {
  const auto it = std::find(replicas_.begin(), replicas_.end(), id);
  if (it == replicas_.end()) throw std::invalid_argument("mencius::Replica: id not in set");
  rank_ = static_cast<std::size_t>(it - replicas_.begin());
  next_own_index_ = rank_;
  obs_proposals_ = obs_sink().counter("mencius.proposals");
  obs_accepts_ = obs_sink().counter("mencius.accepts");
  obs_commits_ = obs_sink().counter("mencius.commits");
  obs_skips_ = obs_sink().counter("mencius.skips");
  obs_executed_ = obs_sink().counter("mencius.executed");
}

void Replica::start() {
  heartbeat_.start(context(), heartbeat_interval_, heartbeat_interval_,
                   [this] { broadcast_heartbeat(); });
}

std::uint64_t Replica::next_owned_at_or_after(std::size_t rank, std::uint64_t at_least) const {
  const auto n = static_cast<std::uint64_t>(replicas_.size());
  const std::uint64_t rem = at_least % n;
  const auto target = static_cast<std::uint64_t>(rank);
  return at_least + (target >= rem ? target - rem : n - rem + target);
}

void Replica::on_packet(const net::Packet& packet) {
  switch (wire::peek_type(packet.payload)) {
    case wire::MessageType::kMenciusClientRequest:
      handle_client_request(packet);
      break;
    case wire::MessageType::kMenciusAccept:
      handle_accept(packet.src, packet.payload);
      break;
    case wire::MessageType::kMenciusAcceptReply:
      handle_accept_reply(packet.src, packet.payload);
      break;
    case wire::MessageType::kMenciusCommit:
      handle_commit(packet.src, packet.payload);
      break;
    case wire::MessageType::kMenciusCommitAck:
      handle_commit_ack(packet.src, packet.payload);
      break;
    case wire::MessageType::kMenciusSkip:
      handle_skip(packet.src, packet.payload);
      break;
    case wire::MessageType::kCatchupRequest:
      handle_catchup_request(packet.src, packet.payload);
      break;
    case wire::MessageType::kCatchupReply:
      handle_catchup_reply(packet.payload);
      break;
    default:
      break;
  }
}

void Replica::handle_client_request(const net::Packet& packet) {
  if (catching_up()) return;  // not rejoined yet; the client's retry will land
  const auto req = wire::decode_message<ClientRequest>(packet.payload);
  const std::uint64_t p = next_own_index_;
  next_own_index_ = p + replicas_.size();
  ++owned_proposals_;
  obs_proposals_.inc();

  log_.accept(p, req.command);
  pending_.emplace(p, Pending{{}, {}, req.command, false, true_now(),
                              open_wait_span("mencius_quorum_wait")});
  owned_request_.emplace(p, req.command.id);

  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] {
        return wire::encode(recovery::IndexAccept{p, req.command, req.command.id.client});
      },
      [this, p, command = req.command] {
        for (NodeId r : replicas_) {
          if (r != id()) send(r, Accept{p, command, safe_skip_frontier(r)});
        }
      });
}

void Replica::handle_accept(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<Accept>(payload);
  const std::size_t owner = owner_of(msg.index);
  apply_skip_frontier(owner, msg.skip_through);
  if (!log_.is_committed(msg.index)) log_.accept(msg.index, msg.command);
  obs_accepts_.inc();
  // Receiving a proposal for index p implicitly promises to never use our
  // own unused instances below p.
  advance_own_lane(msg.index);
  // The AcceptReply is the externalized promise: the owner will count this
  // instance as safely replicated here (and advance skip frontiers past it
  // towards us), so the accept must be durable before the reply leaves.
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] {
        return wire::encode(recovery::IndexAccept{msg.index, msg.command, std::nullopt});
      },
      [this, from, index = msg.index] {
        send(from, AcceptReply{index, safe_skip_frontier(from)});
      });
  execute_ready();
}

void Replica::handle_accept_reply(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<AcceptReply>(payload);
  const auto from_it = std::find(replicas_.begin(), replicas_.end(), from);
  if (from_it != replicas_.end()) {
    apply_skip_frontier(static_cast<std::size_t>(from_it - replicas_.begin()),
                        msg.skip_through);
  }
  auto it = pending_.find(msg.index);
  if (it != pending_.end() && !it->second.committed) {
    auto& acked = it->second.acked;
    if (std::find(acked.begin(), acked.end(), from) == acked.end()) acked.push_back(from);
    if (acked.size() + 1 >= measure::majority(replicas_.size())) {
      it->second.committed = true;
      it->second.last_sent = true_now();
      close_wait_span(it->second.wait_span);
      it->second.wait_span = 0;
      log_.commit(msg.index);
      obs_commits_.inc();
      // Persist the commit decision before it is externalized — by the
      // Commit broadcast, and by the ClientReply that owner execution (in
      // the continuation's execute_ready) may send.
      persistor_.persist(
          recovery::RecordTag::kCommitted,
          [&] { return wire::encode(recovery::IndexEntry{msg.index, it->second.command}); },
          [this, index = msg.index, command = it->second.command] {
            // The Pending entry stays until every peer CommitAcks: the owner
            // retransmits the Commit to the stragglers from the heartbeat,
            // so a follower that was crashed or partitioned at commit time
            // still learns the command instead of stalling its execution
            // frontier.
            for (NodeId r : replicas_) {
              if (r != id()) send(r, Commit{index, command});
            }
            execute_ready();
          });
      return;
    }
  }
  execute_ready();
}

void Replica::handle_commit(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<Commit>(payload);
  // The command rides on the Commit, so a replica that missed the Accept
  // (dropped while it was crashed or partitioned) still materializes the
  // entry; a hole here would stall its execution frontier forever.
  log_.commit(msg.index, msg.command);
  // The CommitAck releases the owner from retransmitting this commit to us
  // — forget it after acking and the hole is permanent — so the commit must
  // be durable before the ack leaves.
  persistor_.persist(
      recovery::RecordTag::kCommitted,
      [&] { return wire::encode(recovery::IndexEntry{msg.index, msg.command}); },
      [this, from, index = msg.index] { send(from, CommitAck{index}); });
  execute_ready();
}

void Replica::handle_commit_ack(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<CommitAck>(payload);
  const auto it = pending_.find(msg.index);
  if (it == pending_.end() || !it->second.committed) return;
  auto& acked = it->second.commit_acked;
  if (std::find(acked.begin(), acked.end(), from) == acked.end()) acked.push_back(from);
  if (acked.size() + 1 >= replicas_.size()) pending_.erase(it);
}

void Replica::handle_skip(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<Skip>(payload);
  const auto from_it = std::find(replicas_.begin(), replicas_.end(), from);
  if (from_it == replicas_.end()) return;
  apply_skip_frontier(static_cast<std::size_t>(from_it - replicas_.begin()),
                      msg.skip_through);
  execute_ready();
}

void Replica::apply_skip_frontier(std::size_t owner_rank, std::uint64_t frontier) {
  if (owner_rank >= replicas_.size()) return;
  std::uint64_t& seen = skip_frontier_seen_[owner_rank];
  if (frontier <= seen) return;
  // Walk the owner's instances in [seen, frontier); FIFO channels guarantee
  // every instance the owner actually used has already been accepted here,
  // so the empty ones are no-ops.
  for (std::uint64_t idx = next_owned_at_or_after(owner_rank, seen); idx < frontier;
       idx += replicas_.size()) {
    if (log_.entry(idx) == nullptr) {
      log_.skip(idx, idx);
      obs_skips_.inc();
    }
  }
  seen = frontier;
}

std::uint64_t Replica::safe_skip_frontier(NodeId peer) const {
  for (const auto& [index, p] : pending_) {
    const bool peer_has_entry =
        std::find(p.acked.begin(), p.acked.end(), peer) != p.acked.end() ||
        std::find(p.commit_acked.begin(), p.commit_acked.end(), peer) !=
            p.commit_acked.end();
    if (!peer_has_entry) return index;  // pending_ is index-ordered
  }
  return next_own_index_;
}

void Replica::advance_own_lane(std::uint64_t index) {
  while (next_own_index_ < index) {
    log_.skip(next_own_index_, next_own_index_);
    next_own_index_ += replicas_.size();
  }
}

void Replica::wipe_volatile() {
  for (const auto& [index, p] : pending_) {
    (void)index;
    close_wait_span(p.wait_span);
  }
  log_ = log::IndexLog{};
  pending_.clear();
  owned_request_.clear();
  next_own_index_ = rank_;
  skip_frontier_seen_.assign(replicas_.size(), 0);
  owned_proposals_ = 0;
}

void Replica::rebuild_from_durable() {
  persistor_.replay([this](const recovery::DurableRecord& rec) {
    switch (rec.tag) {
      case recovery::RecordTag::kAccepted: {
        auto r = wire::decode<recovery::IndexAccept>(rec.body);
        const std::uint64_t index = r.index;
        if (r.client.has_value()) {  // own instance
          if (!log_.is_committed(index)) log_.accept(index, r.command);
          pending_.insert_or_assign(index, Pending{{}, {}, r.command, false, true_now()});
          owned_request_.insert_or_assign(index, r.command.id);
          ++owned_proposals_;
          next_own_index_ =
              std::max(next_own_index_, index + replicas_.size());
        } else {
          if (!log_.is_committed(index)) log_.accept(index, std::move(r.command));
          // Restore the implicit own-lane promise the accept made.
          advance_own_lane(index);
        }
        break;
      }
      case recovery::RecordTag::kCommitted: {
        auto r = wire::decode<recovery::IndexEntry>(rec.body);
        const std::uint64_t index = r.index;
        log_.commit(index, std::move(r.command));
        if (owner_of(index) == rank_) {
          const auto it = pending_.find(index);
          if (it != pending_.end()) {
            it->second.committed = true;
            it->second.acked.clear();
            it->second.commit_acked.clear();
          }
        } else {
          advance_own_lane(index);
        }
        break;
      }
      default:
        break;  // Mencius writes no other tags
    }
  });
  execute_ready();

  // All quorum/ack tallies died with the crash: immediately re-send every
  // pending own instance (Accept if uncommitted, Commit otherwise). Peers
  // re-ack idempotently; without this the execution frontiers of the whole
  // cluster could stall on an orphaned instance for a retransmit period.
  for (auto& [index, p] : pending_) {
    p.last_sent = true_now();
    for (NodeId r : replicas_) {
      if (r == id()) continue;
      if (p.committed) {
        send(r, Commit{index, p.command});
      } else {
        send(r, Accept{index, p.command, safe_skip_frontier(r)});
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
    next_own_index_ = std::max(
        next_own_index_,
        next_owned_at_or_after(rank_, static_cast<std::uint64_t>(msg.frontier)));
    // Own instances the snapshot covers were executed cluster-wide: their
    // clients can be answered now; log execution will never reach them.
    for (auto it = owned_request_.begin(); it != owned_request_.end();) {
      if (it->first < static_cast<std::uint64_t>(msg.frontier)) {
        send(it->second.client, ClientReply{it->second});
        if (const auto p = pending_.find(it->first); p != pending_.end()) {
          close_wait_span(p->second.wait_span);
          pending_.erase(p);
        }
        it = owned_request_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& e : msg.entries) {
    if (e.pos < static_cast<std::int64_t>(log_.execution_frontier())) continue;
    log_.commit(static_cast<std::uint64_t>(e.pos), e.command);
  }
  execute_ready();
}

void Replica::execute_ready() {
  for (auto& [index, command] : log_.drain_executable()) {
    store_.apply(command);
    obs_executed_.inc();
    notify_executed(command.id);
    const auto it = owned_request_.find(index);
    if (it != owned_request_.end()) {
      send(it->second.client, ClientReply{it->second});
      owned_request_.erase(it);
    }
  }
}

void Replica::broadcast_heartbeat() {
  for (NodeId r : replicas_) {
    if (r != id()) send(r, Skip{safe_skip_frontier(r)});
  }
  // Retransmit lost protocol steps. The original Accepts, their replies,
  // or the Commit broadcast may have been dropped while a peer (or this
  // replica) was crashed or partitioned, and Mencius's total commit order
  // means one orphaned instance stalls every execution frontier in the
  // cluster forever — so the owner keeps re-sending until each peer has
  // acknowledged the Accept (uncommitted) or the Commit (committed).
  for (auto& [index, p] : pending_) {
    if (true_now() - p.last_sent < kAcceptRetransmitAfter) continue;
    p.last_sent = true_now();
    for (NodeId r : replicas_) {
      if (r == id()) continue;
      if (!p.committed) {
        if (std::find(p.acked.begin(), p.acked.end(), r) == p.acked.end()) {
          send(r, Accept{index, p.command, safe_skip_frontier(r)});
        }
      } else if (std::find(p.commit_acked.begin(), p.commit_acked.end(), r) ==
                 p.commit_acked.end()) {
        send(r, Commit{index, p.command});
      }
    }
  }
}

}  // namespace domino::mencius
