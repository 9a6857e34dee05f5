// EPaxos replica.
//
// Any replica can lead a command. The command leader computes interference
// dependencies and a sequence number, pre-accepts on a fast quorum, and
// commits in one round trip when all replies agree (the fast path); when
// attributes conflict, it runs a second (Accept) round on a majority with
// the union of the reported attributes — "it may require an additional
// network roundtrip to commit conflicting operations" (paper Section 2).
//
// Execution linearizes the dependency graph: strongly connected components
// in reverse-topological order, commands within a component by (seq, id) —
// so non-interfering commands execute out of order, which is why EPaxos has
// the lowest low-percentile execution latency in Figure 10(a) and degrades
// under contention in Figure 10(b).
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "epaxos/messages.h"
#include "measure/quorum.h"
#include "rpc/replica_base.h"

namespace domino::epaxos {

/// EPaxos fast-quorum size (with the paper's optimized quorums):
/// f + floor((f+1)/2) replicas in total, including the command leader.
[[nodiscard]] constexpr std::size_t fast_quorum(std::size_t n) {
  const std::size_t f = measure::fault_tolerance(n);
  return f + (f + 1) / 2;
}
static_assert(fast_quorum(3) == 2);
static_assert(fast_quorum(5) == 3);

class Replica : public rpc::ReplicaBase {
 public:
  Replica(NodeId id, std::size_t dc, net::Network& network, std::vector<NodeId> replicas,
          sim::LocalClock clock = sim::LocalClock{});

  [[nodiscard]] std::uint64_t committed_count() const { return committed_; }
  [[nodiscard]] std::uint64_t executed_count() const { return executed_; }
  [[nodiscard]] std::uint64_t fast_path_commits() const { return fast_commits_; }
  [[nodiscard]] std::uint64_t slow_path_commits() const { return slow_commits_; }

 protected:
  void on_packet(const net::Packet& packet) override;

  // Crash recovery (rpc::ReplicaBase hooks). Replay rebuilds the
  // interference table and leader books and re-leads own uncommitted
  // instances; a reply ships the full committed instance set.
  void wipe_volatile() override;
  void rebuild_from_durable() override;
  void fill_catchup_reply(recovery::CatchupReply& reply) override;
  void merge_catchup_reply(const recovery::CatchupReply& msg, std::size_t bytes) override;

 private:
  enum class Status : std::uint8_t { kPreAccepted, kAccepted, kCommitted, kExecuted };

  struct Instance {
    sm::Command command;
    std::uint64_t seq = 0;
    DepList deps;
    Status status = Status::kPreAccepted;
  };

  struct LeaderBook {
    std::uint64_t seq = 0;
    DepList deps;
    bool attributes_changed = false;
    // Ack sets (not counts): a restarted leader re-broadcasts its round, so
    // a peer may reply more than once and must not be counted twice.
    std::vector<NodeId> preaccept_acks;  // repliers, self excluded
    std::vector<NodeId> accept_acks;
    bool in_accept_phase = false;
    NodeId client;
  };

  void handle_client_request(const net::Packet& packet);
  void handle_preaccept(NodeId from, const wire::Payload& payload);
  void handle_preaccept_reply(NodeId from, const wire::Payload& payload);
  void handle_accept(NodeId from, const wire::Payload& payload);
  void handle_accept_reply(NodeId from, const wire::Payload& payload);
  void handle_commit(const wire::Payload& payload);

  /// Serialize an instance's attributes into a durable record body.
  [[nodiscard]] wire::Payload instance_record(const InstanceId& inst_id,
                                              const sm::Command& cmd, std::uint64_t seq,
                                              const DepList& deps, Status status,
                                              NodeId client) const;

  /// Compute (seq, deps) for `cmd` against the local interference table and
  /// record `inst` as the latest writer of its key.
  std::pair<std::uint64_t, DepList> attributes_for(const sm::Command& cmd,
                                                   const InstanceId& inst);

  void commit_instance(const InstanceId& inst, const sm::Command& cmd, std::uint64_t seq,
                       const DepList& deps, bool broadcast);
  void try_execute(const InstanceId& inst);
  void execute_scc_from(const InstanceId& root);

  std::unordered_map<InstanceId, Instance> instances_;
  std::unordered_map<InstanceId, LeaderBook> leading_;
  // Interference: latest instance per key, with its seq.
  std::unordered_map<std::string, std::pair<InstanceId, std::uint64_t>> key_table_;
  // Commit wakeups: uncommitted dep -> instances waiting on it.
  std::unordered_map<InstanceId, std::vector<InstanceId>> waiters_;
  std::unordered_map<InstanceId, obs::SpanId> quorum_spans_;  // leader quorum gathers
  std::unordered_map<InstanceId, obs::SpanId> dep_spans_;     // execution blocked on deps

  std::uint64_t next_instance_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t fast_commits_ = 0;
  std::uint64_t slow_commits_ = 0;

  obs::CounterHandle obs_preaccepts_;
  obs::CounterHandle obs_fast_;
  obs::CounterHandle obs_slow_;
  obs::CounterHandle obs_committed_;
  obs::CounterHandle obs_executed_;
};

}  // namespace domino::epaxos
