#include "epaxos/replica.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace domino::epaxos {

namespace {
/// Durable kAccepted/kCommitted body: an instance with its attributes and
/// status. The command leader's own records carry the requesting client.
struct InstanceRecord {
  InstanceId instance;
  sm::Command command;
  std::uint64_t seq = 0;
  DepList deps;
  std::uint8_t status = 0;
  std::optional<NodeId> client;

  void fields(auto& f) { f(instance, command, seq, deps, status, client); }
};

/// Catch-up aux of a committed instance: its attributes, and whether the
/// sender has executed it.
struct InstanceAux {
  InstanceId instance;
  std::uint64_t seq = 0;
  DepList deps;
  bool executed = false;

  void fields(auto& f) { f(instance, seq, deps, executed); }
};

/// Union of two dependency lists (small lists; linear scan is fine).
DepList merge_deps(DepList a, const DepList& b) {
  for (const auto& d : b) {
    if (std::find(a.begin(), a.end(), d) == a.end()) a.push_back(d);
  }
  return a;
}

bool same_deps(const DepList& a, const DepList& b) {
  if (a.size() != b.size()) return false;
  for (const auto& d : a) {
    if (std::find(b.begin(), b.end(), d) == b.end()) return false;
  }
  return true;
}

}  // namespace

Replica::Replica(NodeId id, std::size_t dc, net::Network& network,
                 std::vector<NodeId> replicas, sim::LocalClock clock)
    : rpc::ReplicaBase(id, dc, network, std::move(replicas), clock) {
  if (std::find(replicas_.begin(), replicas_.end(), id) == replicas_.end()) {
    throw std::invalid_argument("epaxos::Replica: id not in replica set");
  }
  obs_preaccepts_ = obs_sink().counter("epaxos.preaccepts");
  obs_fast_ = obs_sink().counter("epaxos.fast_commits");
  obs_slow_ = obs_sink().counter("epaxos.slow_commits");
  obs_committed_ = obs_sink().counter("epaxos.committed");
  obs_executed_ = obs_sink().counter("epaxos.executed");
}

void Replica::on_packet(const net::Packet& packet) {
  switch (wire::peek_type(packet.payload)) {
    case wire::MessageType::kEpaxosClientRequest:
      handle_client_request(packet);
      break;
    case wire::MessageType::kEpaxosPreAccept:
      handle_preaccept(packet.src, packet.payload);
      break;
    case wire::MessageType::kEpaxosPreAcceptReply:
      handle_preaccept_reply(packet.src, packet.payload);
      break;
    case wire::MessageType::kEpaxosAccept:
      handle_accept(packet.src, packet.payload);
      break;
    case wire::MessageType::kEpaxosAcceptReply:
      handle_accept_reply(packet.src, packet.payload);
      break;
    case wire::MessageType::kEpaxosCommit:
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

wire::Payload Replica::instance_record(const InstanceId& inst_id, const sm::Command& cmd,
                                       std::uint64_t seq, const DepList& deps,
                                       Status status, NodeId client) const {
  return wire::encode(InstanceRecord{
      inst_id, cmd, seq, deps, static_cast<std::uint8_t>(status),
      client.valid() ? std::optional<NodeId>(client) : std::nullopt});
}

std::pair<std::uint64_t, DepList> Replica::attributes_for(const sm::Command& cmd,
                                                          const InstanceId& inst) {
  std::uint64_t seq = 1;
  DepList deps;
  auto it = key_table_.find(cmd.key);
  if (it != key_table_.end() && it->second.first != inst) {
    deps.push_back(it->second.first);
    seq = it->second.second + 1;
  }
  key_table_[cmd.key] = {inst, seq};
  return {seq, deps};
}

void Replica::handle_client_request(const net::Packet& packet) {
  if (catching_up()) return;  // not rejoined yet; the client's retry will land
  const auto req = wire::decode_message<ClientRequest>(packet.payload);
  const InstanceId inst{id(), next_instance_++};
  auto [seq, deps] = attributes_for(req.command, inst);
  instances_[inst] = Instance{req.command, seq, deps, Status::kPreAccepted,
                              open_wait_span("epaxos_quorum_wait")};
  LeaderBook book;
  book.seq = seq;
  book.deps = deps;
  leading_[inst] = std::move(book);

  const sm::Command command = req.command;
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] {
        return instance_record(inst, command, seq, deps, Status::kPreAccepted,
                               command.id.client);
      },
      [this, inst, command, seq = seq, deps = deps] {
        const PreAccept msg{inst, command, seq, deps};
        for (NodeId r : replicas_) {
          if (r != id()) send(r, msg);
        }
      });
}

void Replica::handle_preaccept(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<PreAccept>(payload);
  std::uint64_t seq = msg.seq;
  DepList deps = msg.deps;
  auto it = key_table_.find(msg.command.key);
  if (it != key_table_.end() && it->second.first != msg.instance) {
    seq = std::max(seq, it->second.second + 1);
    deps = merge_deps(std::move(deps), {it->second.first});
  }
  key_table_[msg.command.key] = {msg.instance, seq};
  obs_preaccepts_.inc();
  // A commit may already have arrived on another channel; never downgrade.
  auto inst_it = instances_.find(msg.instance);
  if (inst_it == instances_.end() || inst_it->second.status == Status::kPreAccepted) {
    instances_[msg.instance] = Instance{msg.command, seq, deps, Status::kPreAccepted};
  }
  // The reply promises the merged attributes; they must survive a crash or
  // the leader could fast-commit on attributes this replica later disowns.
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] {
        return instance_record(msg.instance, msg.command, seq, deps, Status::kPreAccepted,
                               NodeId::invalid());
      },
      [this, from, inst = msg.instance, seq, deps] {
        send(from, PreAcceptReply{inst, seq, deps});
      });
}

void Replica::handle_preaccept_reply(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<PreAcceptReply>(payload);
  auto book_it = leading_.find(msg.instance);
  if (book_it == leading_.end()) return;
  LeaderBook& book = book_it->second;
  if (book.in_accept_phase) return;
  auto inst_it = instances_.find(msg.instance);
  if (inst_it == instances_.end() || inst_it->second.status != Status::kPreAccepted) return;
  if (std::find(book.preaccept_acks.begin(), book.preaccept_acks.end(), from) !=
      book.preaccept_acks.end()) {
    return;  // duplicate reply (re-broadcast after a restart)
  }

  book.preaccept_acks.push_back(from);
  if (msg.seq != book.seq || !same_deps(msg.deps, book.deps)) {
    book.attributes_changed = true;
    book.seq = std::max(book.seq, msg.seq);
    book.deps = merge_deps(std::move(book.deps), msg.deps);
  }
  if (book.preaccept_acks.size() + 1 < fast_quorum(replicas_.size())) return;

  Instance& inst = inst_it->second;
  if (!book.attributes_changed) {
    // Fast path: one round trip.
    ++fast_commits_;
    obs_fast_.inc();
    if (obs_sink().tracing()) {
      obs_sink().record(obs::TraceEvent{.at = true_now(),
                                        .request = inst.command.id,
                                        .node = id(),
                                        .kind = obs::EventKind::kFastAccept});
    }
    // The commit decision is externalized by the ClientReply and the Commit
    // broadcast, so it must be durable first. The book is erased now so
    // replies landing during the sync window cannot re-trigger the quorum.
    const sm::Command command = inst.command;
    const std::uint64_t seq = book.seq;
    const DepList deps = book.deps;
    leading_.erase(book_it);
    persistor_.persist(
        recovery::RecordTag::kCommitted,
        [&] {
          return instance_record(msg.instance, command, seq, deps, Status::kCommitted,
                                 NodeId::invalid());
        },
        [this, inst_id = msg.instance, command, seq, deps] {
          commit_instance(inst_id, command, seq, deps, /*broadcast=*/true);
          send(command.id.client, ClientReply{command.id});
        });
    return;
  }
  // Slow path: Paxos-Accept round with the union attributes.
  book.in_accept_phase = true;
  inst.seq = book.seq;
  inst.deps = book.deps;
  inst.status = Status::kAccepted;
  const sm::Command command = inst.command;
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] {
        return instance_record(msg.instance, command, book.seq, book.deps,
                               Status::kAccepted, command.id.client);
      },
      [this, inst_id = msg.instance, command, seq = book.seq, deps = book.deps] {
        const Accept msg_out{inst_id, command, seq, deps};
        for (NodeId r : replicas_) {
          if (r != id()) send(r, msg_out);
        }
      });
}

void Replica::handle_accept(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<Accept>(payload);
  auto it = instances_.find(msg.instance);
  if (it == instances_.end()) {
    instances_[msg.instance] = Instance{msg.command, msg.seq, msg.deps, Status::kAccepted};
  } else if (it->second.status == Status::kPreAccepted) {
    it->second.seq = msg.seq;
    it->second.deps = msg.deps;
    it->second.status = Status::kAccepted;
  }
  auto kt = key_table_.find(msg.command.key);
  if (kt == key_table_.end() || kt->second.second < msg.seq) {
    key_table_[msg.command.key] = {msg.instance, msg.seq};
  }
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] {
        return instance_record(msg.instance, msg.command, msg.seq, msg.deps,
                               Status::kAccepted, NodeId::invalid());
      },
      [this, from, inst = msg.instance] { send(from, AcceptReply{inst}); });
}

void Replica::handle_accept_reply(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<AcceptReply>(payload);
  auto book_it = leading_.find(msg.instance);
  if (book_it == leading_.end()) return;
  LeaderBook& book = book_it->second;
  if (!book.in_accept_phase) return;
  if (std::find(book.accept_acks.begin(), book.accept_acks.end(), from) !=
      book.accept_acks.end()) {
    return;  // duplicate reply (re-broadcast after a restart)
  }
  book.accept_acks.push_back(from);
  if (book.accept_acks.size() + 1 < measure::majority(replicas_.size())) return;

  auto inst_it = instances_.find(msg.instance);
  if (inst_it == instances_.end()) return;
  ++slow_commits_;
  obs_slow_.inc();
  const sm::Command command = inst_it->second.command;
  const std::uint64_t seq = book.seq;
  const DepList deps = book.deps;
  leading_.erase(book_it);
  persistor_.persist(
      recovery::RecordTag::kCommitted,
      [&] {
        return instance_record(msg.instance, command, seq, deps, Status::kCommitted,
                               NodeId::invalid());
      },
      [this, inst_id = msg.instance, command, seq, deps] {
        commit_instance(inst_id, command, seq, deps, /*broadcast=*/true);
        send(command.id.client, ClientReply{command.id});
      });
}

void Replica::handle_commit(const wire::Payload& payload) {
  const auto msg = wire::decode_message<Commit>(payload);
  commit_instance(msg.instance, msg.command, msg.seq, msg.deps, /*broadcast=*/false);
  // Nothing is externalized on this path, so the persist is fire-and-forget.
  persistor_.persist(recovery::RecordTag::kCommitted, [&] {
    return instance_record(msg.instance, msg.command, msg.seq, msg.deps,
                           Status::kCommitted, NodeId::invalid());
  });
}

void Replica::wipe_volatile() {
  for (const auto& [inst_id, inst] : instances_) {
    (void)inst_id;
    close_wait_span(inst.quorum_span);
    close_wait_span(inst.dep_span);
  }
  instances_.clear();
  leading_.clear();
  key_table_.clear();
  waiters_.clear();
  next_instance_ = 0;
  committed_ = 0;
  executed_ = 0;
}

void Replica::rebuild_from_durable() {
  persistor_.replay([this](const recovery::DurableRecord& rec) {
    if (rec.tag != recovery::RecordTag::kAccepted &&
        rec.tag != recovery::RecordTag::kCommitted) {
      return;  // EPaxos writes no other tags
    }
    auto r = wire::decode<InstanceRecord>(rec.body);
    const InstanceId inst_id = r.instance;
    sm::Command cmd = std::move(r.command);
    const std::uint64_t seq = r.seq;
    DepList deps = std::move(r.deps);
    const auto status = static_cast<Status>(r.status);
    const NodeId client = r.client.value_or(NodeId::invalid());

    if (inst_id.replica == id()) {
      next_instance_ = std::max(next_instance_, inst_id.seq + 1);
    }
    auto kt = key_table_.find(cmd.key);
    if (kt == key_table_.end() || kt->second.second < seq) {
      key_table_[cmd.key] = {inst_id, seq};
    }
    if (rec.tag == recovery::RecordTag::kCommitted) {
      // Direct mutation (not commit_instance): replay rebuilds state without
      // re-counting commits or re-broadcasting.
      instances_[inst_id] = Instance{std::move(cmd), seq, deps, Status::kCommitted};
      leading_.erase(inst_id);  // the client was already answered
      return;
    }
    auto it = instances_.find(inst_id);
    if (it == instances_.end() || it->second.status < Status::kCommitted) {
      // Later records supersede earlier ones, but never downgrade a commit
      // (a duplicate round from a previous incarnation may replay late).
      instances_[inst_id] = Instance{std::move(cmd), seq, deps, status};
    }
    if (client.valid()) {
      LeaderBook book;
      book.seq = seq;
      book.deps = std::move(deps);
      book.in_accept_phase = (status == Status::kAccepted);
      book.attributes_changed = book.in_accept_phase;
      leading_[inst_id] = std::move(book);
    }
  });

  // Re-execute the committed graph from an empty store.
  std::vector<InstanceId> committed_ids;
  for (const auto& [inst_id, inst] : instances_) {
    if (inst.status == Status::kCommitted) committed_ids.push_back(inst_id);
  }
  committed_ = committed_ids.size();
  for (const auto& inst_id : committed_ids) try_execute(inst_id);

  // Re-lead own uncommitted instances: the reply tallies died with the
  // crash, so restart the round (peers treat the re-broadcast as a
  // retransmission and simply re-reply).
  for (auto& [inst_id, book] : leading_) {
    const auto it = instances_.find(inst_id);
    if (it == instances_.end() || it->second.status >= Status::kCommitted) continue;
    book.preaccept_acks.clear();
    book.accept_acks.clear();
    if (const obs::SpanId s = open_wait_span("epaxos_quorum_wait"); s != 0) {
      it->second.quorum_span = s;
    }
    if (book.in_accept_phase) {
      const Accept msg{inst_id, it->second.command, book.seq, book.deps};
      for (NodeId r : replicas_) {
        if (r != id()) send(r, msg);
      }
    } else {
      const PreAccept msg{inst_id, it->second.command, book.seq, book.deps};
      for (NodeId r : replicas_) {
        if (r != id()) send(r, msg);
      }
    }
  }
}

void Replica::fill_catchup_reply(recovery::CatchupReply& reply) {
  reply.frontier = static_cast<std::int64_t>(store_.applied_count());
  // EPaxos has no totally-ordered log: ship the full committed instance set
  // with its attributes in the aux field.
  for (const auto& [inst_id, inst] : instances_) {
    if (inst.status != Status::kCommitted && inst.status != Status::kExecuted) continue;
    const InstanceAux aux{inst_id, inst.seq, inst.deps, inst.status == Status::kExecuted};
    reply.entries.push_back(recovery::CatchupEntry{0, 0, inst.command, wire::encode(aux)});
  }
}

void Replica::merge_catchup_reply(const recovery::CatchupReply& msg, std::size_t bytes) {
  // Only the first qualifying reply installs a snapshot: once rejoined the
  // store reflects live executions a later reply's snapshot (taken at the
  // peer's earlier reply time, or by a peer with a different execution
  // frontier) may not contain — overwriting would silently lose them while
  // their instances stay marked executed. Later replies still merge their
  // committed-instance sets below, which is idempotent.
  const bool installed = catching_up() && msg.applied > store_.applied_count();
  if (installed) install_snapshot(msg, bytes);
  std::unordered_set<InstanceId> peer_knows;
  peer_knows.reserve(msg.entries.size());
  for (const auto& e : msg.entries) {
    auto aux = wire::decode<InstanceAux>(e.aux);
    const InstanceId inst_id = aux.instance;
    const std::uint64_t seq = aux.seq;
    DepList deps = std::move(aux.deps);
    const bool peer_executed = aux.executed;
    peer_knows.insert(inst_id);
    if (inst_id.replica == id()) {
      next_instance_ = std::max(next_instance_, inst_id.seq + 1);
    }
    auto it = instances_.find(inst_id);
    if (it != instances_.end() && it->second.status == Status::kExecuted) continue;
    auto kt = key_table_.find(e.command.key);
    if (kt == key_table_.end() || kt->second.second < seq) {
      key_table_[e.command.key] = {inst_id, seq};
    }
    leading_.erase(inst_id);  // committed cluster-wide; nothing left to lead
    if (installed && peer_executed) {
      // The installed snapshot already reflects this command's execution:
      // mark it executed without re-applying, and release its waiters.
      // Assigned field by field: the instance keeps its open wait spans.
      Instance& inst = instances_[inst_id];
      inst.command = e.command;
      inst.seq = seq;
      inst.deps = std::move(deps);
      inst.status = Status::kExecuted;
      wake_waiters(inst_id);
    } else {
      commit_instance(inst_id, e.command, seq, deps, /*broadcast=*/false);
    }
  }
  if (catching_up()) {
    // Re-announce own-led commits this peer does not know. A crash inside
    // the durable-sync window cancels the Commit broadcast after the
    // decision is already durable, and replay deliberately does not
    // re-broadcast — so a peer that was live the whole time (and thus will
    // never catch up itself) would block forever on the instance, wedging
    // every later instance that depends on it. Duplicates are no-ops at
    // the receiver (commit_instance is idempotent).
    for (const auto& [inst_id, inst] : instances_) {
      if (inst_id.replica != id()) continue;
      if (inst.status != Status::kCommitted && inst.status != Status::kExecuted) continue;
      if (peer_knows.contains(inst_id)) continue;
      const Commit out{inst_id, inst.command, inst.seq, inst.deps};
      for (NodeId r : replicas_) {
        if (r != id()) send(r, out);
      }
    }
  }
}

void Replica::commit_instance(const InstanceId& inst_id, const sm::Command& cmd,
                              std::uint64_t seq, const DepList& deps, bool broadcast) {
  auto it = instances_.find(inst_id);
  if (it == instances_.end()) {
    it = instances_.emplace(inst_id, Instance{cmd, seq, deps, Status::kCommitted}).first;
  } else {
    if (it->second.status == Status::kCommitted || it->second.status == Status::kExecuted) {
      return;  // idempotent
    }
    it->second.seq = seq;
    it->second.deps = deps;
    it->second.status = Status::kCommitted;
  }
  ++committed_;
  obs_committed_.inc();
  close_wait_span(it->second.quorum_span);
  it->second.quorum_span = 0;
  if (broadcast) {
    Commit msg{inst_id, cmd, seq, deps};
    for (NodeId r : replicas_) {
      if (r != id()) send(r, msg);
    }
  }
  try_execute(inst_id);
  wake_waiters(inst_id);
}

void Replica::wake_waiters(const InstanceId& inst_id) {
  auto w = waiters_.find(inst_id);
  if (w == waiters_.end()) return;
  const std::vector<InstanceId> blocked = std::move(w->second);
  waiters_.erase(w);
  for (const auto& b : blocked) {
    Instance& waiter = instances_.at(b);
    close_wait_span(waiter.dep_span);
    waiter.dep_span = 0;
    try_execute(b);
  }
}

void Replica::try_execute(const InstanceId& root) {
  auto it = instances_.find(root);
  if (it == instances_.end() || it->second.status != Status::kCommitted) return;
  execute_scc_from(root);
}

void Replica::execute_scc_from(const InstanceId& root) {
  // Iterative Tarjan over the committed dependency graph. Edges run from an
  // instance to its dependencies; executed instances are terminal. If any
  // reachable dependency is not yet committed, execution of `root` is
  // deferred until that dependency commits.
  struct NodeState {
    std::size_t index = 0;
    std::size_t lowlink = 0;
    bool on_stack = false;
  };
  std::unordered_map<InstanceId, NodeState> state;
  std::vector<InstanceId> stack;               // Tarjan stack
  std::vector<std::vector<InstanceId>> sccs;   // emitted in dependency-first order
  std::size_t next_index = 0;

  struct Frame {
    InstanceId node;
    std::size_t dep_cursor = 0;
  };
  std::vector<Frame> call_stack;
  call_stack.push_back({root, 0});
  state[root] = {next_index, next_index, true};
  ++next_index;
  stack.push_back(root);

  while (!call_stack.empty()) {
    Frame& frame = call_stack.back();
    Instance& inst = instances_.at(frame.node);
    if (frame.dep_cursor < inst.deps.size()) {
      const InstanceId dep = inst.deps[frame.dep_cursor++];
      auto dep_it = instances_.find(dep);
      if (dep_it == instances_.end() ||
          (dep_it->second.status != Status::kCommitted &&
           dep_it->second.status != Status::kExecuted)) {
        // Uncommitted dependency: defer the whole attempt.
        waiters_[dep].push_back(root);
        if (Instance& blocked = instances_.at(root); blocked.dep_span == 0) {
          blocked.dep_span = open_wait_span("epaxos_dep_wait");
        }
        return;
      }
      if (dep_it->second.status == Status::kExecuted) continue;
      auto st = state.find(dep);
      if (st == state.end()) {
        state[dep] = {next_index, next_index, true};
        ++next_index;
        stack.push_back(dep);
        call_stack.push_back({dep, 0});
      } else if (st->second.on_stack) {
        auto& me = state.at(frame.node);
        me.lowlink = std::min(me.lowlink, st->second.index);
      }
      continue;
    }
    // Node finished: maybe emit an SCC.
    const NodeState me = state.at(frame.node);
    if (me.lowlink == me.index) {
      std::vector<InstanceId> scc;
      for (;;) {
        const InstanceId top = stack.back();
        stack.pop_back();
        state.at(top).on_stack = false;
        scc.push_back(top);
        if (top == frame.node) break;
      }
      sccs.push_back(std::move(scc));
    }
    const InstanceId finished = frame.node;
    call_stack.pop_back();
    if (!call_stack.empty()) {
      auto& parent = state.at(call_stack.back().node);
      parent.lowlink = std::min(parent.lowlink, state.at(finished).lowlink);
    }
  }

  // SCCs are emitted dependencies-first; execute each, ordering commands
  // within a component by (seq, instance id).
  for (auto& scc : sccs) {
    std::sort(scc.begin(), scc.end(), [this](const InstanceId& a, const InstanceId& b) {
      const Instance& ia = instances_.at(a);
      const Instance& ib = instances_.at(b);
      if (ia.seq != ib.seq) return ia.seq < ib.seq;
      return a < b;
    });
    for (const auto& inst_id : scc) {
      Instance& inst = instances_.at(inst_id);
      if (inst.status == Status::kExecuted) continue;
      inst.status = Status::kExecuted;
      ++executed_;
      obs_executed_.inc();
      store_.apply(inst.command);
      notify_executed(inst.command.id);
    }
  }
}

}  // namespace domino::epaxos
