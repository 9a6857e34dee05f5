// The shared restart / catch-up / rejoin state machine of rpc::ReplicaBase,
// driven through a minimal fake protocol and a scripted peer that answers
// catch-up requests only when the test says so.
#include "rpc/replica_base.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "support/fixtures.h"

namespace domino::rpc {
namespace {

/// Records every hook call; merges by optionally installing the snapshot.
class FakeReplica : public ReplicaBase {
 public:
  FakeReplica(NodeId id, net::Network& network, std::vector<NodeId> replicas)
      : ReplicaBase(id, /*dc=*/0, network, std::move(replicas), sim::LocalClock{}) {}

  std::vector<std::string> calls;
  std::vector<std::uint64_t> merged_epochs;
  bool catching_up_in_rebuild = false;
  std::uint64_t applied_in_rebuild = 1;
  std::int64_t frontier = 0;  // advertised in replies this replica serves

 protected:
  void on_packet(const net::Packet& packet) override {
    switch (wire::peek_type(packet.payload)) {
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
  void wipe_volatile() override { calls.push_back("wipe"); }
  void rebuild_from_durable() override {
    calls.push_back("rebuild");
    catching_up_in_rebuild = catching_up();
    applied_in_rebuild = store_.applied_count();
  }
  void fill_catchup_reply(recovery::CatchupReply& reply) override {
    calls.push_back("fill");
    reply.frontier = frontier;
  }
  void merge_catchup_reply(const recovery::CatchupReply& msg, std::size_t bytes) override {
    calls.push_back("merge");
    merged_epochs.push_back(msg.epoch);
    install_snapshot(msg, bytes);
  }
};

/// A peer that logs catch-up requests and replies on demand.
class ScriptedPeer : public Node {
 public:
  using Node::Node;

  struct Seen {
    TimePoint at;
    recovery::CatchupRequest request;
  };
  std::vector<Seen> requests;
  std::vector<recovery::CatchupReply> replies;

  void reply(NodeId to, std::uint64_t epoch, std::uint64_t applied,
             std::vector<recovery::KvEntry> snapshot = {}) {
    recovery::CatchupReply r;
    r.epoch = epoch;
    r.applied = applied;
    r.snapshot = std::move(snapshot);
    send(to, r);
  }
  void request(NodeId to, std::uint64_t epoch) { send(to, recovery::CatchupRequest{epoch, 0}); }

 protected:
  void on_packet(const net::Packet& packet) override {
    switch (wire::peek_type(packet.payload)) {
      case wire::MessageType::kCatchupRequest:
        requests.push_back(
            {true_now(), wire::decode_message<recovery::CatchupRequest>(packet.payload)});
        break;
      case wire::MessageType::kCatchupReply:
        replies.push_back(wire::decode_message<recovery::CatchupReply>(packet.payload));
        break;
      default:
        break;
    }
  }
};

/// Replica 0 (fake, DC A) and a scripted peer 1 (DC B, 10 ms one way), with
/// metrics, tracing and a durable store bound.
struct Cluster {
  explicit Cluster(std::size_t n_replicas = 2)
      : network(simulator, test::four_dc(), 1), durable(recovery::DurableConfig{}) {
    const obs::Sink sink{&metrics, &trace, nullptr, nullptr};
    network.bind_obs(sink);
    durable.bind_obs(sink);
    const std::vector<NodeId> rids = test::replica_ids(n_replicas);
    replica = std::make_unique<FakeReplica>(rids[0], network, rids);
    replica->attach();
    replica->enable_durability(durable);
    if (n_replicas > 1) {
      peer = std::make_unique<ScriptedPeer>(rids[1], 1, network);
      peer->attach();
    }
  }

  void at(Duration t, std::function<void()> fn) {
    simulator.schedule_at(TimePoint::epoch() + t, std::move(fn));
  }
  void run_until(Duration t) { simulator.run_until(TimePoint::epoch() + t); }

  [[nodiscard]] std::size_t events(obs::EventKind kind) const {
    std::size_t n = 0;
    for (const obs::TraceEvent& e : trace.snapshot()) n += (e.kind == kind) ? 1 : 0;
    return n;
  }

  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  sim::Simulator simulator;
  net::Network network;
  recovery::DurableStore durable;
  std::unique_ptr<FakeReplica> replica;
  std::unique_ptr<ScriptedPeer> peer;
};

TEST(ReplicaBase, RestartRunsHooksInOrderAndCatchesUpUntilRejoin) {
  Cluster c;
  EXPECT_FALSE(c.replica->catching_up());
  c.at(milliseconds(0), [&] { c.replica->restart(); });
  c.run_until(milliseconds(1));
  EXPECT_TRUE(c.replica->catching_up());
  EXPECT_EQ(c.replica->calls, (std::vector<std::string>{"wipe", "rebuild"}));
  // Replay runs against a wiped store with the replica already catching up.
  EXPECT_TRUE(c.replica->catching_up_in_rebuild);
  EXPECT_EQ(c.replica->applied_in_rebuild, 0u);

  c.run_until(milliseconds(490));
  EXPECT_TRUE(c.replica->catching_up());  // still nobody answered
  c.at(milliseconds(500), [&] {
    c.peer->reply(NodeId{0}, /*epoch=*/1, /*applied=*/3, {{"k", "v"}});
  });
  c.run_until(milliseconds(520));
  EXPECT_FALSE(c.replica->catching_up());
  EXPECT_EQ(c.replica->merged_epochs, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(c.replica->store().applied_count(), 3u);
  EXPECT_EQ(c.replica->store().items().at("k"), "v");
}

TEST(ReplicaBase, RequestsRepeatEveryRetryIntervalUntilAReplyArrives) {
  Cluster c;
  c.at(milliseconds(0), [&] { c.replica->restart(); });
  c.at(milliseconds(350), [&] { c.peer->reply(NodeId{0}, 1, 0); });
  c.run_until(seconds(2));
  // Sent at 0, 100, 200 and 300 ms (arriving 10 ms later); the reply lands
  // at 360 ms, so the retry armed for 400 ms finds the replica rejoined.
  ASSERT_EQ(c.peer->requests.size(), 4u);
  for (std::size_t i = 0; i < c.peer->requests.size(); ++i) {
    EXPECT_EQ(c.peer->requests[i].at,
              TimePoint::epoch() + milliseconds(10) +
                  ReplicaBase::kCatchupRetryInterval * static_cast<std::int64_t>(i));
    EXPECT_EQ(c.peer->requests[i].request.epoch, 1u);
  }
  EXPECT_FALSE(c.replica->catching_up());
}

TEST(ReplicaBase, ReplyFromAnOlderEpochIsIgnored) {
  Cluster c;
  c.at(milliseconds(0), [&] { c.replica->restart(); });
  c.at(milliseconds(50), [&] { c.replica->restart(); });  // epoch 2
  // An answer to the first incarnation's request arrives after the second
  // restart: it must neither be merged nor end the catch-up.
  c.at(milliseconds(100), [&] { c.peer->reply(NodeId{0}, 1, 7, {{"stale", "x"}}); });
  c.run_until(milliseconds(300));
  EXPECT_TRUE(c.replica->catching_up());
  EXPECT_TRUE(c.replica->merged_epochs.empty());
  EXPECT_EQ(c.replica->store().applied_count(), 0u);
  // Requests keep coming, all for the current epoch after the restart.
  ASSERT_FALSE(c.peer->requests.empty());
  EXPECT_EQ(c.peer->requests.back().request.epoch, 2u);

  c.at(milliseconds(310), [&] { c.peer->reply(NodeId{0}, 2, 0); });
  c.run_until(milliseconds(400));
  EXPECT_FALSE(c.replica->catching_up());
  EXPECT_EQ(c.replica->merged_epochs, (std::vector<std::uint64_t>{2}));
}

TEST(ReplicaBase, SingleReplicaDeploymentRejoinsImmediately) {
  Cluster c(/*n_replicas=*/1);
  c.replica->restart();
  EXPECT_FALSE(c.replica->catching_up());
  EXPECT_EQ(c.replica->calls, (std::vector<std::string>{"wipe", "rebuild"}));
  EXPECT_EQ(c.events(obs::EventKind::kRecoveryStart), 1u);
  EXPECT_EQ(c.events(obs::EventKind::kRecoveryDone), 1u);
  c.run_until(seconds(1));
  EXPECT_EQ(c.network.packets_sent(), 0u);  // no catch-up traffic at all
}

TEST(ReplicaBase, RecoveryEventsAndStatsAreEmittedOncePerRestart) {
  Cluster c;
  for (const std::int64_t start : {0, 1000}) {
    c.at(milliseconds(start), [&] { c.replica->restart(); });
    // Two replies for the same epoch: both merge, but only the first
    // rejoins.
    c.at(milliseconds(start + 150), [&c, start] {
      const std::uint64_t epoch = start == 0 ? 1 : 2;
      c.peer->reply(NodeId{0}, epoch, 1, {{"a", "1"}});
      c.peer->reply(NodeId{0}, epoch, 1, {{"a", "1"}});
    });
  }
  c.run_until(milliseconds(500));
  EXPECT_EQ(c.events(obs::EventKind::kRecoveryStart), 1u);
  EXPECT_EQ(c.events(obs::EventKind::kRecoveryDone), 1u);
  c.run_until(seconds(2));
  EXPECT_EQ(c.events(obs::EventKind::kRecoveryStart), 2u);
  EXPECT_EQ(c.events(obs::EventKind::kRecoveryDone), 2u);
  EXPECT_EQ(c.replica->merged_epochs, (std::vector<std::uint64_t>{1, 1, 2, 2}));

  const recovery::RecoveryStats stats = c.durable.aggregate();
  EXPECT_EQ(stats.restarts, 2u);
  EXPECT_EQ(stats.catchup_installs, 4u);  // the fake installs every merge
  // Each rejoin took the 10 ms request + 150 ms wait + 10 ms reply.
  EXPECT_EQ(stats.rejoin_ns_total, 2 * milliseconds(160).nanos());
  EXPECT_EQ(c.metrics.find_counter("recovery.restarts")->value(), 2u);
  EXPECT_EQ(c.metrics.find_histogram("recovery.time_to_rejoin_ns")->count(), 2u);
}

TEST(ReplicaBase, ServesCatchupRequestsEvenWhileCatchingUp) {
  Cluster c;
  c.replica->frontier = 42;
  c.at(milliseconds(0), [&] { c.replica->restart(); });
  c.at(milliseconds(20), [&] { c.peer->request(NodeId{0}, /*epoch=*/9); });
  c.run_until(milliseconds(60));
  EXPECT_TRUE(c.replica->catching_up());
  ASSERT_EQ(c.peer->replies.size(), 1u);
  EXPECT_EQ(c.peer->replies[0].epoch, 9u);  // echoed for the requester
  EXPECT_EQ(c.peer->replies[0].frontier, 42);
  EXPECT_EQ(c.peer->replies[0].applied, 0u);
}

}  // namespace
}  // namespace domino::rpc
