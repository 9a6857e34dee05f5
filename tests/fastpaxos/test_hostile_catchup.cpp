// A Fast Paxos coordinator must bound the work a single catch-up reply can
// cause: skipped-range entries carry a range end chosen by the sender.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>

#include "fastpaxos/client.h"
#include "fastpaxos/replica.h"
#include "recovery/messages.h"
#include "support/fixtures.h"

namespace domino::fastpaxos {
namespace {

/// Sends whatever the test hands it; ignores everything it receives.
class Forger : public rpc::Node {
 public:
  using Node::Node;

 protected:
  void on_packet(const net::Packet&) override {}
};

recovery::CatchupEntry skip_entry(std::int64_t lo, std::uint64_t hi) {
  wire::ByteWriter aux;
  aux.varint(hi);
  return recovery::CatchupEntry{lo, 0, sm::Command{}, aux.take()};
}

struct HostileCatchup : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, test::four_dc(), 1};
  recovery::DurableStore durable;
  std::vector<NodeId> rids = test::replica_ids(3);
  std::vector<std::unique_ptr<Replica>> replicas;
  std::unique_ptr<Client> client;
  Forger forger{NodeId{666}, 3, network};

  void SetUp() override {
    for (std::size_t i = 0; i < 3; ++i) {
      replicas.push_back(std::make_unique<Replica>(rids[i], i, network, rids, rids[0]));
      replicas.back()->attach();
      replicas.back()->enable_durability(durable);
    }
    client = std::make_unique<Client>(NodeId{1000}, 3, network, rids);
    client->attach();
    forger.attach();
  }

  Replica& coordinator() { return *replicas[0]; }

  void run_until(Duration t) { simulator.run_until(TimePoint::epoch() + t); }

  /// Commit `n` commands, restart the coordinator at 1 s and let the forger
  /// answer its catch-up request (epoch 1) with `entries`. Returns the wall
  /// time the reply's simulated second took.
  std::chrono::duration<double> forge_after_restart(std::vector<recovery::CatchupEntry> entries,
                                                    std::uint64_t n) {
    for (std::uint64_t s = 0; s < n; ++s) client->submit(test::make_command(client->id(), s));
    run_until(seconds(1));
    coordinator().restart();
    recovery::CatchupReply reply;
    reply.epoch = 1;
    reply.entries = std::move(entries);
    forger.send(rids[0], reply);
    const auto start = std::chrono::steady_clock::now();
    run_until(seconds(2));
    return std::chrono::steady_clock::now() - start;
  }
};

TEST_F(HostileCatchup, UnrepresentableSkipRangesAreDropped) {
  const auto took = forge_after_restart(
      {skip_entry(0, std::numeric_limits<std::uint64_t>::max()),
       skip_entry(0, std::uint64_t{1} << 63), skip_entry(-5, 10)},
      5);
  EXPECT_LT(took.count(), 5.0);
  // The log is exactly what the honest peers' replies made it.
  EXPECT_FALSE(coordinator().catching_up());
  EXPECT_EQ(coordinator().log().execution_frontier(), 5u);
  EXPECT_EQ(coordinator().log().skip_interval_count(), 0u);
  EXPECT_FALSE(coordinator().log().is_skipped(5));
  EXPECT_EQ(coordinator().store().applied_count(), 5u);

  // And the cluster keeps committing at the positions right behind.
  for (std::uint64_t s = 5; s < 8; ++s) client->submit(test::make_command(client->id(), s));
  run_until(seconds(3));
  EXPECT_EQ(client->committed_count(), 8u);
  EXPECT_EQ(coordinator().log().execution_frontier(), 8u);
}

TEST_F(HostileCatchup, HugeSkipRangeCostsConstantWork) {
  // A representable but enormous range: the old per-index tally loop would
  // run for days on this.
  constexpr std::uint64_t kHi = std::uint64_t{1} << 40;
  const auto took = forge_after_restart({skip_entry(3, kHi)}, 3);
  EXPECT_LT(took.count(), 5.0);
  EXPECT_TRUE(coordinator().log().is_skipped(kHi));
  EXPECT_FALSE(coordinator().log().is_skipped(kHi + 1));
  EXPECT_EQ(coordinator().log().execution_frontier(), kHi + 1);
  EXPECT_EQ(coordinator().log().skip_interval_count(), 1u);
  EXPECT_EQ(coordinator().store().applied_count(), 3u);
}

}  // namespace
}  // namespace domino::fastpaxos
