// Multi-Paxos replica.
//
// One replica is the fixed leader. Clients send requests to the leader,
// which assigns consecutive log indices, replicates via Accept, commits on
// a majority of accept replies (counting itself), answers the client, and
// asynchronously notifies followers. Committed entries execute in index
// order against the key-value store.
#pragma once

#include <unordered_map>
#include <vector>

#include "log/index_log.h"
#include "measure/prober.h"
#include "measure/quorum.h"
#include "rpc/replica_base.h"

namespace domino::paxos {

class Replica : public rpc::ReplicaBase {
 public:
  Replica(NodeId id, std::size_t dc, net::Network& network, std::vector<NodeId> replicas,
          NodeId leader, sim::LocalClock clock = sim::LocalClock{});

  [[nodiscard]] bool is_leader() const { return leader_ == id(); }
  [[nodiscard]] NodeId leader() const { return leader_; }
  [[nodiscard]] const log::IndexLog& log() const { return log_; }
  [[nodiscard]] std::uint64_t committed_count() const { return committed_; }

 protected:
  void on_packet(const net::Packet& packet) override;

  // Crash recovery (rpc::ReplicaBase hooks). Restart re-proposes
  // uncommitted leader entries before catching up from live peers.
  void wipe_volatile() override;
  void rebuild_from_durable() override;
  void fill_catchup_reply(recovery::CatchupReply& reply) override;
  void merge_catchup_reply(const recovery::CatchupReply& msg, std::size_t bytes) override;

 private:
  void handle_client_request(const net::Packet& packet);
  void handle_accept(NodeId from, const wire::Payload& payload);
  void handle_accept_reply(const wire::Payload& payload);
  void handle_commit(const wire::Payload& payload);
  void execute_ready();

  NodeId leader_;
  log::IndexLog log_;

  // Leader state.
  std::uint64_t next_index_ = 0;
  // An index's accept round until it commits; the reply goes to the client
  // named in the log entry's command id.
  struct Round {
    std::size_t acks = 1;       // accept replies, self included
    obs::SpanId wait_span = 0;  // quorum wait (0 = none)
  };
  std::unordered_map<std::uint64_t, Round> rounds_;
  std::uint64_t committed_ = 0;

  obs::CounterHandle obs_accepts_;
  obs::CounterHandle obs_commits_;
  obs::CounterHandle obs_executed_;
};

}  // namespace domino::paxos
