// FIFO channel reset on recovery. Channel state is one row per source node
// indexed by destination slot; recovering a node must clear both its row
// (channels it sends on) and its column (channels that send to it), so
// post-recovery packets are never ordered behind pre-crash deliveries.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "net/network.h"

namespace domino::net {
namespace {

TEST(NetworkChannelReset, RecoveryClearsRowAndColumn) {
  sim::Simulator simulator;
  // 200 ms RTT: the constant default links carry 100 ms one-way delays.
  Network network(simulator, Topology{{"A", "B"}, {{0.0, 200.0}, {200.0, 0.0}}}, 1);
  std::map<std::uint8_t, TimePoint> arrived;  // payload tag -> delivery time
  for (std::uint32_t id = 0; id < 2; ++id) {
    network.register_node(NodeId{id}, id, [&](const Packet& p) {
      arrived[p.payload.at(0)] = simulator.now();
    });
  }
  // A bystander registered later, so node 1 is not the last slot.
  network.register_node(NodeId{2}, 0, [](const Packet&) {});

  network.send(NodeId{0}, NodeId{1}, wire::Payload{1});  // column of node 1
  network.send(NodeId{1}, NodeId{0}, wire::Payload{2});  // row of node 1
  simulator.run_until(TimePoint::epoch() + milliseconds(1));
  network.crash(NodeId{1});
  simulator.run_until(TimePoint::epoch() + milliseconds(2));
  network.recover(NodeId{1});

  // Both directions now take 10 ms.
  network.set_link_model(0, 1, std::make_unique<ConstantLatency>(milliseconds(10)));
  network.set_link_model(1, 0, std::make_unique<ConstantLatency>(milliseconds(10)));
  simulator.run_until(TimePoint::epoch() + milliseconds(3));
  network.send(NodeId{0}, NodeId{1}, wire::Payload{3});
  network.send(NodeId{1}, NodeId{0}, wire::Payload{4});
  simulator.run();

  // Without the reset each would land 1 ns after the 100 ms pre-crash packet.
  ASSERT_TRUE(arrived.contains(3));
  ASSERT_TRUE(arrived.contains(4));
  EXPECT_EQ(arrived[3], TimePoint::epoch() + milliseconds(13));
  EXPECT_EQ(arrived[4], TimePoint::epoch() + milliseconds(13));
}

TEST(NetworkChannelReset, OtherChannelsKeepTheirFifoState) {
  sim::Simulator simulator;
  Network network(simulator, Topology{{"A", "B"}, {{0.0, 200.0}, {200.0, 0.0}}}, 1);
  std::map<std::uint8_t, TimePoint> arrived;
  for (std::uint32_t id = 0; id < 3; ++id) {
    network.register_node(NodeId{id}, id == 0 ? 0 : 1, [&](const Packet& p) {
      arrived[p.payload.at(0)] = simulator.now();
    });
  }
  network.send(NodeId{0}, NodeId{2}, wire::Payload{1});  // 0 -> 2, 100 ms
  network.crash(NodeId{1});
  network.recover(NodeId{1});  // must not touch channel 0 -> 2
  network.set_link_model(0, 1, std::make_unique<ConstantLatency>(milliseconds(10)));
  network.send(NodeId{0}, NodeId{2}, wire::Payload{2});
  simulator.run();
  EXPECT_EQ(arrived[1], TimePoint::epoch() + milliseconds(100));
  EXPECT_EQ(arrived[2], TimePoint::epoch() + milliseconds(100) + nanoseconds(1));
}

TEST(NetworkChannelReset, RecoveringAnUnknownNodeIsHarmless) {
  sim::Simulator simulator;
  Network network(simulator, Topology{{"A"}, {{0.0}}}, 1);
  network.register_node(NodeId{0}, 0, [](const Packet&) {});
  network.crash(NodeId{9});
  EXPECT_NO_THROW(network.recover(NodeId{9}));
}

}  // namespace
}  // namespace domino::net
