// Mencius replica (paper reference [24]; used as both a baseline and the
// design Domino's DM subsystem extends).
//
// Every replica leads the log instances congruent to its rank (mod n).
// A client sends requests to its closest replica, which proposes them at
// its next owned instance. Commit of instance p at its owner requires a
// majority of accepts AND the resolution (commit or skip) of all earlier
// instances — the "delayed commit" behaviour the paper measures as
// Mencius's extra latency (Section 7.2.2). The client is answered when its
// instance executes at the owner.
#pragma once

#include <map>
#include <unordered_map>
#include <vector>

#include "log/index_log.h"
#include "measure/quorum.h"
#include "rpc/replica_base.h"

namespace domino::mencius {

class Replica : public rpc::ReplicaBase {
 public:
  Replica(NodeId id, std::size_t dc, net::Network& network, std::vector<NodeId> replicas,
          Duration heartbeat_interval = milliseconds(10),
          sim::LocalClock clock = sim::LocalClock{});

  /// Start heartbeats; call after attach().
  void start() override;

  [[nodiscard]] std::size_t rank() const { return rank_; }
  [[nodiscard]] const log::IndexLog& log() const { return log_; }
  [[nodiscard]] std::uint64_t owned_proposals() const { return owned_proposals_; }

 protected:
  void on_packet(const net::Packet& packet) override;

  // Crash recovery (rpc::ReplicaBase hooks). Replay rebuilds the own-lane
  // reservation and the pending retransmission state.
  void wipe_volatile() override;
  void rebuild_from_durable() override;
  void fill_catchup_reply(recovery::CatchupReply& reply) override;
  void merge_catchup_reply(const recovery::CatchupReply& msg, std::size_t bytes) override;

 private:
  [[nodiscard]] std::size_t owner_of(std::uint64_t index) const {
    return static_cast<std::size_t>(index % replicas_.size());
  }
  /// Smallest index owned by `rank` that is >= `at_least`.
  [[nodiscard]] std::uint64_t next_owned_at_or_after(std::size_t rank,
                                                     std::uint64_t at_least) const;

  void handle_client_request(const net::Packet& packet);
  void handle_accept(NodeId from, const wire::Payload& payload);
  void handle_accept_reply(NodeId from, const wire::Payload& payload);
  void handle_commit(NodeId from, const wire::Payload& payload);
  void handle_commit_ack(NodeId from, const wire::Payload& payload);
  void handle_skip(NodeId from, const wire::Payload& payload);

  /// The largest own-lane frontier that is safe to advertise to `peer`:
  /// every used owned instance below it has been acknowledged by that peer
  /// (via AcceptReply or CommitAck), so the peer cannot mistake a used
  /// instance it never received for a no-op. A global frontier would be
  /// sound only on loss-free FIFO channels; crashes and partitions drop
  /// packets, so the frontier must be per peer.
  [[nodiscard]] std::uint64_t safe_skip_frontier(NodeId peer) const;

  /// Record that `owner_rank`'s unused owned instances below `frontier` are
  /// no-ops (marks the empty ones in the log).
  void apply_skip_frontier(std::size_t owner_rank, std::uint64_t frontier);

  /// Advance our own lane past `index`: skip our unused owned instances
  /// below it (locally; peers learn via piggybacked skip_through).
  void advance_own_lane(std::uint64_t index);

  void execute_ready();
  void broadcast_heartbeat();

  /// Re-send an Accept whose majority is overdue (covers replies dropped by
  /// crashes/partitions). Comfortably above the widest NA/Globe RTT so
  /// fault-free runs never retransmit.
  static constexpr Duration kAcceptRetransmitAfter = milliseconds(400);

  std::size_t rank_ = 0;
  Duration heartbeat_interval_;
  log::IndexLog log_;
  rpc::RepeatingTimer heartbeat_;

  std::uint64_t next_own_index_ = 0;  // smallest unused owned instance
  std::vector<std::uint64_t> skip_frontier_seen_;  // per owner rank

  // Owner-side pending instances: index -> ack sets. The ack set (rather
  // than a count) makes Accept retransmission safe: a follower that
  // re-replies after a retransmit is not counted twice.
  struct Pending {
    std::vector<NodeId> acked;         // AcceptReply senders, self excluded
    std::vector<NodeId> commit_acked;  // CommitAck senders, self excluded
    sm::Command command;               // kept for retransmission
    bool committed = false;
    TimePoint last_sent;        // last (re)transmission of the Accept/Commit
    obs::SpanId wait_span = 0;  // quorum wait until commit (0 = none)
  };
  std::map<std::uint64_t, Pending> pending_;  // ordered: commit in index order
  std::unordered_map<std::uint64_t, RequestId> owned_request_;  // index -> request id
  std::uint64_t owned_proposals_ = 0;

  obs::CounterHandle obs_proposals_;
  obs::CounterHandle obs_accepts_;
  obs::CounterHandle obs_commits_;
  obs::CounterHandle obs_skips_;
  obs::CounterHandle obs_executed_;
};

}  // namespace domino::mencius
