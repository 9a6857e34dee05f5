// Classic Fast Paxos replica (acceptor role) and coordinator (learner +
// recovery proposer).
//
// Acceptors assign incoming client requests to consecutive local log
// indices (arrival order). Because concurrent clients' requests arrive in
// different orders at different acceptors, indices collide and the
// coordinator must run the recovery protocol — the behaviour Figure 7
// quantifies ("Fast Paxos would fall back to its slow path ... even if
// there are only a small set of concurrent clients").
//
// The coordinator is a distinguished replica. Per index it gathers every
// acceptor's ballot-0 acceptance, fast-commits when a supermajority agrees,
// and otherwise recovers: it picks the most-accepted not-yet-committed
// request (no-op if none) and runs a ballot-1 accept round on a majority.
// Requests that lose their position are re-proposed by the coordinator.
#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/interval_set.h"
#include "fastpaxos/messages.h"
#include "log/index_log.h"
#include "measure/quorum.h"
#include "rpc/replica_base.h"

namespace domino::fastpaxos {

class Replica : public rpc::ReplicaBase {
 public:
  Replica(NodeId id, std::size_t dc, net::Network& network, std::vector<NodeId> replicas,
          NodeId coordinator, Duration recovery_timeout = milliseconds(500),
          sim::LocalClock clock = sim::LocalClock{});

  [[nodiscard]] bool is_coordinator() const { return coordinator_ == id(); }
  [[nodiscard]] const log::IndexLog& log() const { return log_; }
  [[nodiscard]] std::uint64_t fast_commits() const { return fast_commits_; }
  [[nodiscard]] std::uint64_t slow_commits() const { return slow_commits_; }

 protected:
  void on_packet(const net::Packet& packet) override;

  // Crash recovery (rpc::ReplicaBase hooks). A restarted coordinator arms
  // recovery timers for undecided indices whose tallies died with it; a
  // catch-up reply also ships the skipped (no-op) ranges.
  void wipe_volatile() override;
  void rebuild_from_durable() override;
  void fill_catchup_reply(recovery::CatchupReply& reply) override;
  void merge_catchup_reply(const recovery::CatchupReply& msg, std::size_t bytes) override;

 private:
  // ---- acceptor side ----
  void handle_client_request(const net::Packet& packet);
  void handle_recovery_accept(NodeId from, const wire::Payload& payload);
  void handle_commit(const wire::Payload& payload);

  // ---- coordinator side ----
  void handle_accept_notice(NodeId from, const wire::Payload& payload);
  void handle_recovery_reply(const wire::Payload& payload);
  void maybe_resolve(std::uint64_t index);
  void start_recovery(std::uint64_t index);
  void finish_commit(std::uint64_t index, bool is_noop, const sm::Command& command,
                     bool was_fast);
  void repropose_losers(std::uint64_t index, const std::optional<RequestId>& winner);

  void execute_ready();

  NodeId coordinator_;
  Duration recovery_timeout_;
  log::IndexLog log_;

  // Acceptor state: where each request was assigned locally.
  std::unordered_map<RequestId, std::uint64_t> assignment_;
  std::uint64_t next_index_ = 0;

  // Coordinator state.
  struct Tally {
    std::unordered_map<NodeId, sm::Command> reports;  // acceptor -> accepted command
    bool resolved = false;
    bool recovering = false;
    std::size_t recovery_acks = 0;
    std::optional<Commit> recovery_choice;
    bool timer_armed = false;
  };
  std::map<std::uint64_t, Tally> tallies_;
  /// Skipped ranges learned from peers' catch-up replies. Kept as ranges
  /// (not per-index tallies) so the work per range is independent of its
  /// length, which a peer chooses.
  IntervalSet learned_skips_;
  /// An index's tally is settled: resolved here, or inside a learned skip.
  [[nodiscard]] bool decided(std::uint64_t index, const Tally& tally) const {
    return tally.resolved || learned_skips_.contains(static_cast<std::int64_t>(index));
  }
  std::unordered_map<std::uint64_t, obs::SpanId> recovery_spans_;  // index -> wait span
  std::unordered_map<RequestId, sm::Command> committed_requests_;
  // Requests picked by an in-flight recovery; excluded from concurrent
  // recovery choices so one request cannot be chosen at two indices.
  std::unordered_set<RequestId> recovery_chosen_;
  std::uint64_t fast_commits_ = 0;
  std::uint64_t slow_commits_ = 0;

  obs::CounterHandle obs_accepts_;
  obs::CounterHandle obs_fast_;
  obs::CounterHandle obs_slow_;
  obs::CounterHandle obs_executed_;
};

}  // namespace domino::fastpaxos
