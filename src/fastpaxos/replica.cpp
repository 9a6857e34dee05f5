#include "fastpaxos/replica.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "recovery/records.h"

namespace domino::fastpaxos {

namespace {
/// Durable kCommitted body: the decision at `index` (a no-op or `command`).
struct CommittedRecord {
  std::uint64_t index = 0;
  bool is_noop = false;
  sm::Command command;

  void fields(auto& f) { f(index, is_noop, command); }
};

/// Catch-up aux of a skipped range [entry pos, hi].
struct SkipRangeAux {
  std::uint64_t hi = 0;

  void fields(auto& f) { f(hi); }
};
}  // namespace

Replica::Replica(NodeId id, std::size_t dc, net::Network& network,
                 std::vector<NodeId> replicas, NodeId coordinator,
                 Duration recovery_timeout, sim::LocalClock clock)
    : rpc::ReplicaBase(id, dc, network, std::move(replicas), clock),
      coordinator_(coordinator),
      recovery_timeout_(recovery_timeout) {
  if (std::find(replicas_.begin(), replicas_.end(), id) == replicas_.end()) {
    throw std::invalid_argument("fastpaxos::Replica: id not in replica set");
  }
  obs_accepts_ = obs_sink().counter("fastpaxos.accepts");
  obs_fast_ = obs_sink().counter("fastpaxos.fast_commits");
  obs_slow_ = obs_sink().counter("fastpaxos.slow_commits");
  obs_executed_ = obs_sink().counter("fastpaxos.executed");
}

void Replica::on_packet(const net::Packet& packet) {
  switch (wire::peek_type(packet.payload)) {
    case wire::MessageType::kFastPaxosClientRequest:
      handle_client_request(packet);
      break;
    case wire::MessageType::kFastPaxosAcceptNotice:
      handle_accept_notice(packet.src, packet.payload);
      break;
    case wire::MessageType::kFastPaxosRecoveryAccept:
      handle_recovery_accept(packet.src, packet.payload);
      break;
    case wire::MessageType::kFastPaxosRecoveryReply:
      handle_recovery_reply(packet.payload);
      break;
    case wire::MessageType::kFastPaxosCommit:
      handle_commit(packet.payload);
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

// ---------------------------------------------------------------- acceptor

void Replica::handle_client_request(const net::Packet& packet) {
  if (catching_up()) return;  // not rejoined yet; the client's retry will land
  const auto req = wire::decode_message<ClientRequest>(packet.payload);
  const RequestId rid = req.command.id;

  auto it = assignment_.find(rid);
  if (it != assignment_.end()) {
    const std::uint64_t old_index = it->second;
    const auto* entry = log_.entry(old_index);
    const bool resolved_against_us =
        log_.is_skipped(old_index) ||
        (entry != nullptr && entry->status != log::EntryStatus::kAccepted &&
         entry->command.id != rid) ||
        (log_.is_committed(old_index) && entry != nullptr && entry->command.id != rid);
    const bool committed_here =
        entry != nullptr && entry->command.id == rid &&
        entry->status != log::EntryStatus::kAccepted;
    if (committed_here) {
      // A retry of a request that already won: the coordinator's reply was
      // lost (it crashed between deciding and sending); answer directly.
      send(rid.client, ClientReply{rid});
      return;
    }
    if (!resolved_against_us) {
      // Still pending: re-notify the coordinator, whose tally for this
      // index may have died with a crash. Idempotent on a live tally.
      send(coordinator_, AcceptNotice{old_index, req.command});
      return;
    }
    // The request lost its old position; fall through and assign a new one.
  }

  const std::uint64_t index = next_index_++;
  log_.accept(index, req.command);
  obs_accepts_.inc();
  assignment_[rid] = index;

  const sm::Command command = req.command;
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] { return wire::encode(recovery::IndexEntry{index, command}); },
      [this, index, command, client = rid.client] {
        const AcceptNotice notice{index, command};
        send(coordinator_, notice);
        send(client, notice);
      });
}

void Replica::handle_recovery_accept(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<RecoveryAccept>(payload);
  // Ballot 1 from the (only) coordinator always supersedes the ballot-0
  // acceptance; the actual log update happens on Commit.
  send(from, RecoveryReply{msg.index});
}

void Replica::handle_commit(const wire::Payload& payload) {
  const auto msg = wire::decode_message<Commit>(payload);
  if (msg.is_noop) {
    log_.skip(msg.index, msg.index);
  } else {
    log_.commit(msg.index, msg.command);
  }
  // Nothing is externalized on this path, so the persist is fire-and-forget.
  persistor_.persist(recovery::RecordTag::kCommitted, [&] {
    return wire::encode(CommittedRecord{msg.index, msg.is_noop, msg.command});
  });
  execute_ready();
}

// ------------------------------------------------------------- coordinator

void Replica::handle_accept_notice(NodeId from, const wire::Payload& payload) {
  if (!is_coordinator()) return;
  const auto msg = wire::decode_message<AcceptNotice>(payload);
  Tally& tally = tallies_[msg.index];
  if (decided(msg.index, tally)) {
    // Late report for an already-resolved position. Re-send the decision to
    // the reporter: if it is a recovering acceptor retrying a request whose
    // Commit died with a crash, this is what unblocks its log.
    if (log_.is_skipped(msg.index)) {
      send(from, Commit{msg.index, /*is_noop=*/true, {}});
    } else if (const auto* e = log_.entry(msg.index);
               e != nullptr && e->status != log::EntryStatus::kAccepted) {
      send(from, Commit{msg.index, /*is_noop=*/false, e->command});
    }
    // If this request lost, get it re-proposed.
    if (!committed_requests_.contains(msg.command.id)) {
      for (NodeId r : replicas_) send(r, ClientRequest{msg.command});
    }
    return;
  }
  tally.reports[from] = msg.command;
  maybe_resolve(msg.index);
}

void Replica::maybe_resolve(std::uint64_t index) {
  Tally& tally = tallies_[index];
  if (decided(index, tally) || tally.recovering) return;

  // Count acceptances per request.
  std::unordered_map<RequestId, std::size_t> counts;
  for (const auto& [acceptor, cmd] : tally.reports) {
    (void)acceptor;
    ++counts[cmd.id];
  }
  const std::size_t q = measure::supermajority(replicas_.size());
  for (const auto& [rid, count] : counts) {
    if (count >= q) {
      // Fast path: a supermajority accepted the same request here.
      sm::Command winner;
      for (const auto& [acceptor, cmd] : tally.reports) {
        (void)acceptor;
        if (cmd.id == rid) {
          winner = cmd;
          break;
        }
      }
      finish_commit(index, /*is_noop=*/false, winner, /*was_fast=*/true);
      return;
    }
  }

  if (tally.reports.size() == replicas_.size()) {
    // Everyone reported and nobody reached a supermajority: collision.
    start_recovery(index);
    return;
  }

  if (!tally.timer_armed) {
    tally.timer_armed = true;
    after(recovery_timeout_, [this, index] {
      auto it = tallies_.find(index);
      if (it == tallies_.end() || decided(index, it->second) || it->second.recovering) {
        return;
      }
      if (it->second.reports.size() >= measure::majority(replicas_.size())) {
        start_recovery(index);
      }
    });
  }
}

void Replica::start_recovery(std::uint64_t index) {
  Tally& tally = tallies_[index];
  tally.recovering = true;
  if (const obs::SpanId s = open_wait_span("fp_recovery"); s != 0) tally.recovery_span = s;

  // Pick the most-accepted request that is not already committed elsewhere;
  // no-op if none. (The coordinator has ballot-0 reports from everyone who
  // responded; with no fast-path winner, any reported value is safe here in
  // the crash-free ballot-0/ballot-1 regime.)
  std::unordered_map<RequestId, std::size_t> counts;
  for (const auto& [acceptor, cmd] : tally.reports) {
    (void)acceptor;
    if (committed_requests_.contains(cmd.id)) continue;
    if (recovery_chosen_.contains(cmd.id)) continue;  // claimed by another index
    ++counts[cmd.id];
  }
  Commit choice;
  choice.index = index;
  if (counts.empty()) {
    choice.is_noop = true;
  } else {
    RequestId best{};
    std::size_t best_count = 0;
    bool first = true;
    for (const auto& [rid, count] : counts) {
      if (first || count > best_count || (count == best_count && rid < best)) {
        best = rid;
        best_count = count;
        first = false;
      }
    }
    for (const auto& [acceptor, cmd] : tally.reports) {
      (void)acceptor;
      if (cmd.id == best) {
        choice.command = cmd;
        break;
      }
    }
  }
  if (!choice.is_noop) recovery_chosen_.insert(choice.command.id);
  tally.recovery_choice = choice;
  tally.recovery_acks = 1;  // the coordinator accepts its own proposal

  RecoveryAccept msg{index, choice.is_noop, choice.command};
  for (NodeId r : replicas_) {
    if (r != id()) send(r, msg);
  }
}

void Replica::handle_recovery_reply(const wire::Payload& payload) {
  if (!is_coordinator()) return;
  const auto msg = wire::decode_message<RecoveryReply>(payload);
  auto it = tallies_.find(msg.index);
  if (it == tallies_.end() || decided(msg.index, it->second) || !it->second.recovering) {
    return;
  }
  Tally& tally = it->second;
  if (++tally.recovery_acks < measure::majority(replicas_.size())) return;
  const Commit choice = *tally.recovery_choice;
  finish_commit(msg.index, choice.is_noop, choice.command, /*was_fast=*/false);
}

void Replica::finish_commit(std::uint64_t index, bool is_noop, const sm::Command& command,
                            bool was_fast) {
  Tally& tally = tallies_[index];
  tally.resolved = true;
  close_wait_span(tally.recovery_span);
  tally.recovery_span = 0;
  if (was_fast) {
    ++fast_commits_;
    obs_fast_.inc();
    if (obs_sink().tracing()) {
      obs_sink().record(obs::TraceEvent{.at = true_now(),
                                        .kind = obs::EventKind::kFastAccept,
                                        .node = id(),
                                        .request = command.id,
                                        .value = static_cast<std::int64_t>(index)});
    }
  } else {
    ++slow_commits_;
    obs_slow_.inc();
  }

  std::optional<RequestId> winner;
  if (!is_noop) {
    winner = command.id;
    committed_requests_.emplace(command.id, command);
    log_.commit(index, command);
  } else {
    log_.skip(index, index);
  }

  // The decision is externalized by the Commit broadcast and the client
  // reply, so it must be durable first.
  persistor_.persist(
      recovery::RecordTag::kCommitted,
      [&] { return wire::encode(CommittedRecord{index, is_noop, command}); },
      [this, index, is_noop, command, winner] {
        // Notify acceptors first (FIFO: re-proposals below must arrive after
        // the Commit so acceptors see their old assignment resolved before
        // they are asked to reassign).
        const Commit commit{index, is_noop, command};
        for (NodeId r : replicas_) {
          if (r != id()) send(r, commit);
        }
        if (!is_noop) send(command.id.client, ClientReply{command.id});
        repropose_losers(index, winner);
      });
  execute_ready();
}

void Replica::repropose_losers(std::uint64_t index, const std::optional<RequestId>& winner) {
  Tally& tally = tallies_[index];
  std::unordered_map<RequestId, sm::Command> losers;
  for (const auto& [acceptor, cmd] : tally.reports) {
    (void)acceptor;
    if (winner && cmd.id == *winner) continue;
    if (committed_requests_.contains(cmd.id)) continue;
    losers.emplace(cmd.id, cmd);
  }
  for (const auto& [rid, cmd] : losers) {
    (void)rid;
    for (NodeId r : replicas_) send(r, ClientRequest{cmd});
  }
}

void Replica::wipe_volatile() {
  for (const auto& [index, tally] : tallies_) {
    (void)index;
    close_wait_span(tally.recovery_span);
  }
  log_ = log::IndexLog{};
  assignment_.clear();
  next_index_ = 0;
  tallies_.clear();
  learned_skips_ = IntervalSet{};
  committed_requests_.clear();
  recovery_chosen_.clear();
  fast_commits_ = 0;
  slow_commits_ = 0;
}

void Replica::rebuild_from_durable() {
  std::uint64_t max_index = 0;
  bool any = false;
  persistor_.replay([this, &max_index, &any](const recovery::DurableRecord& rec) {
    switch (rec.tag) {
      case recovery::RecordTag::kAccepted: {
        auto r = wire::decode<recovery::IndexEntry>(rec.body);
        const std::uint64_t index = r.index;
        assignment_[r.command.id] = index;
        if (!log_.is_committed(index) && !log_.is_skipped(index)) {
          log_.accept(index, std::move(r.command));
        }
        next_index_ = std::max(next_index_, index + 1);
        max_index = std::max(max_index, index);
        any = true;
        break;
      }
      case recovery::RecordTag::kCommitted: {
        auto r = wire::decode<CommittedRecord>(rec.body);
        const std::uint64_t index = r.index;
        if (r.is_noop) {
          log_.skip(index, index);
        } else {
          committed_requests_.emplace(r.command.id, r.command);
          log_.commit(index, std::move(r.command));
        }
        // The coordinator's own decisions must stay resolved, or a late
        // notice could re-open a decided index.
        if (is_coordinator()) tallies_[index].resolved = true;
        max_index = std::max(max_index, index);
        any = true;
        break;
      }
      default:
        break;  // Fast Paxos writes no other tags
    }
  });
  execute_ready();

  // Coordinator gap-filling: tallies for undecided indices died with the
  // crash, and acceptors only re-notify when their client retries. Arm a
  // recovery timer for every undecided index at or below the highest index
  // seen, so positions whose reporters have all moved on still resolve (to
  // no-ops). Safe with an empty tally: this coordinator is the only
  // learner, so a value can only have been chosen if its decision is in our
  // durable log — and those replayed as resolved above.
  if (is_coordinator() && any) {
    for (std::uint64_t index = log_.execution_frontier(); index <= max_index; ++index) {
      if (log_.is_skipped(index) || log_.is_committed(index)) continue;
      Tally& tally = tallies_[index];
      if (decided(index, tally)) continue;
      tally.timer_armed = true;
      after(recovery_timeout_, [this, index] {
        auto it = tallies_.find(index);
        if (it == tallies_.end() || decided(index, it->second) || it->second.recovering) {
          return;
        }
        start_recovery(index);
      });
    }
  }
}

void Replica::fill_catchup_reply(recovery::CatchupReply& reply) {
  reply.frontier = static_cast<std::int64_t>(log_.execution_frontier());
  for (auto& [index, command] : log_.committed_unexecuted()) {
    reply.entries.push_back(recovery::CatchupEntry{
        static_cast<std::int64_t>(index), 0, std::move(command), {}});
  }
  // No-op decisions are one-shot Commit broadcasts in Fast Paxos, so a
  // recovering replica cannot re-learn them from retransmissions: ship the
  // skipped ranges above the frontier explicitly (aux = range end).
  for (const auto& [lo, hi] : log_.skipped_after(log_.execution_frontier())) {
    reply.entries.push_back(recovery::CatchupEntry{
        static_cast<std::int64_t>(lo), 0, sm::Command{}, wire::encode(SkipRangeAux{hi})});
  }
}

void Replica::merge_catchup_reply(const recovery::CatchupReply& msg, std::size_t bytes) {
  if (msg.frontier > static_cast<std::int64_t>(log_.execution_frontier())) {
    install_snapshot(msg, bytes);
    log_.fast_forward(static_cast<std::uint64_t>(msg.frontier));
  }
  constexpr auto kMaxIndex =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  for (const auto& e : msg.entries) {
    if (e.pos < 0) continue;  // no honest peer sends a negative index
    if (!e.aux.empty()) {     // skipped range [pos, aux]
      const std::uint64_t hi = wire::decode<SkipRangeAux>(e.aux).hi;
      if (hi > kMaxIndex) continue;  // beyond any log index; drop it
      const auto lo =
          std::max(static_cast<std::uint64_t>(e.pos), log_.execution_frontier());
      if (hi < lo) continue;
      // Constant work per range whatever its length: the range end is the
      // peer's choice.
      log_.skip(lo, hi);
      if (is_coordinator()) {
        learned_skips_.insert(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi));
      }
      continue;
    }
    if (e.pos < static_cast<std::int64_t>(log_.execution_frontier())) continue;
    const auto index = static_cast<std::uint64_t>(e.pos);
    log_.commit(index, e.command);
    if (is_coordinator()) {
      committed_requests_.emplace(e.command.id, e.command);
      tallies_[index].resolved = true;
    }
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

}  // namespace domino::fastpaxos
