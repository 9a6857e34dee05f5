// Per-packet allocation budget of the simulated message path.
//
// This executable replaces the global operator new with a counting one and
// asserts that, once warmed up, the steady-state hot paths perform zero
// heap allocations:
//   - a protocol message round trip between two rpc::Nodes over
//     net::Network: encode (recycled buffer), send (in-flight slab), the
//     delivery event (inline std::function in the simulator's action slab),
//     delivery, decode, and the payload's return to the free list;
//   - an unbound Persistor::persist (durability off) whose continuation
//     captures a whole sm::Command: it runs inline, nothing is type-erased.
// and that a ClientBase submit -> commit cycle costs at most one allocation
// per request (its entry in the request table), timeouts off or on, and
// that a constructed obs::TraceRecorder records, fills and wraps without
// allocating.
// Its own binary, since the operator new replacement is process-wide.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/messages.h"
#include "net/network.h"
#include "obs/trace.h"
#include "recovery/durable.h"
#include "rpc/client_base.h"
#include "rpc/node.h"
#include "sim/simulator.h"

namespace {

std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t align) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t a) { return counted_alloc_aligned(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return counted_alloc_aligned(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace domino {
namespace {

sm::Command command_8b(std::uint64_t seq) {
  sm::Command c;
  c.id = RequestId{NodeId{1000}, seq};
  c.key = "k1234567";
  c.value = "v7654321";
  return c;
}

/// Replies to a DmAccept with a DmAcceptReply and bounces a DmAcceptReply
/// back while `bounces` lasts, decoding every packet it receives.
class PingNode : public rpc::Node {
 public:
  using rpc::Node::Node;
  std::uint64_t received = 0;
  std::uint64_t bounces = 0;
  std::int64_t checksum = 0;

  void send_accept(NodeId dst, std::int64_t ts) {
    send(dst, core::DmAccept{ts, 2, command_8b(static_cast<std::uint64_t>(ts))});
  }
  void send_reply(NodeId dst, std::int64_t ts) { send(dst, core::DmAcceptReply{ts, 2}); }

 protected:
  void on_packet(const net::Packet& packet) override {
    ++received;
    switch (wire::peek_type(packet.payload)) {
      case wire::MessageType::kDmAccept: {
        const auto msg = wire::decode_message<core::DmAccept>(packet.payload);
        checksum += msg.ts + static_cast<std::int64_t>(msg.command.key.size());
        send_reply(packet.src, msg.ts);
        break;
      }
      case wire::MessageType::kDmAcceptReply: {
        const auto msg = wire::decode_message<core::DmAcceptReply>(packet.payload);
        checksum += msg.ts;
        if (bounces > 0) {
          --bounces;
          send_reply(packet.src, msg.ts + 1);
        }
        break;
      }
      default: break;
    }
  }
};

struct TwoNodes {
  sim::Simulator simulator;
  net::Network network{simulator, net::Topology{{"A", "B"}, {{0.0, 80.0}, {80.0, 0.0}}}, 7};
  PingNode a{NodeId{0}, 0, network};
  PingNode b{NodeId{1}, 1, network};

  TwoNodes() {
    network.use_default_links(net::JitterParams{});
    a.attach();
    b.attach();
  }
};

constexpr int kWarmup = 200;
constexpr int kMeasured = 2000;

TEST(AllocBudget, DmAcceptReplyRoundTripAllocatesNothing) {
  TwoNodes t;
  // Each round trip: a -> b and b -> a, both DmAcceptReply.
  auto round_trips = [&t](int n) {
    for (int i = 0; i < n; ++i) {
      t.b.bounces = 1;
      t.a.send_reply(NodeId{1}, i);
      t.simulator.run();
    }
  };
  round_trips(kWarmup);
  const std::uint64_t before = g_allocations;
  round_trips(kMeasured);
  const std::uint64_t allocations = g_allocations - before;
  EXPECT_EQ(t.a.received, static_cast<std::uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(allocations, 0u) << "per round trip: "
                             << static_cast<double>(allocations) / kMeasured;
}

TEST(AllocBudget, DmAcceptRoundTripAllocatesNothing) {
  TwoNodes t;
  // Each round trip: DmAccept (8-byte key and value) a -> b, DmAcceptReply
  // b -> a. Several packets in flight at once exercise slab reuse.
  auto round_trips = [&t](int n) {
    for (int i = 0; i < n; i += 4) {
      for (int k = 0; k < 4; ++k) t.a.send_accept(NodeId{1}, i + k);
      t.simulator.run();
    }
  };
  round_trips(kWarmup);
  const std::uint64_t before = g_allocations;
  round_trips(kMeasured);
  const std::uint64_t allocations = g_allocations - before;
  EXPECT_EQ(t.b.received, static_cast<std::uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(t.a.received, static_cast<std::uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(allocations, 0u) << "per round trip: "
                             << static_cast<double>(allocations) / kMeasured;
}

TEST(AllocBudget, UnboundPersistRunsInlineWithoutAllocating) {
  recovery::Persistor persistor;  // unbound: durability off
  const sm::Command cmd = command_8b(42);
  std::uint64_t ran = 0;
  bool body_called = false;
  const std::uint64_t before = g_allocations;
  for (int i = 0; i < kMeasured; ++i) {
    persistor.persist(
        recovery::RecordTag::kAccepted,
        [&] {
          body_called = true;
          return wire::Payload(128);
        },
        [cmd, &ran] { ran += cmd.key.size() + cmd.value.size(); });
  }
  const std::uint64_t allocations = g_allocations - before;
  EXPECT_FALSE(body_called);
  EXPECT_EQ(ran, static_cast<std::uint64_t>(kMeasured) * 16);
  EXPECT_EQ(allocations, 0u);
}

/// Client whose propose() self-commits after 1 ms. The commit timer
/// captures only `this` and the seq, so std::function holds it inline.
class LoopbackClient : public rpc::ClientBase {
 public:
  LoopbackClient(NodeId id, net::Network& network)
      : rpc::ClientBase(id, 0, network, sim::LocalClock{}) {}

 protected:
  void propose(const sm::Command& command) override {
    after(milliseconds(1), [this, seq = command.id.seq] {
      handle_committed(RequestId{id(), seq});
    });
  }
  void on_packet(const net::Packet&) override {}
};

/// Allocations per request of `n` submit -> commit cycles after a warm-up,
/// with the client's request timeout set to `timeout` (zero = off).
double client_allocations_per_request(Duration timeout) {
  sim::Simulator simulator;
  net::Network network(simulator, net::Topology{{"A"}, {{0.0}}}, 1);
  LoopbackClient client(NodeId{1000}, network);
  client.attach();
  client.set_request_timeout(timeout);
  std::uint64_t seq = 0;
  auto cycles = [&](int n) {
    for (int i = 0; i < n; ++i) {
      client.submit(command_8b(seq++));
      simulator.run();
    }
  };
  cycles(kWarmup);
  const std::uint64_t before = g_allocations;
  cycles(kMeasured);
  const std::uint64_t allocations = g_allocations - before;
  EXPECT_EQ(client.committed_count(), static_cast<std::uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(client.inflight_count(), 0u);
  return static_cast<double>(allocations) / kMeasured;
}

TEST(AllocBudget, ClientSubmitCommitCycleAllocatesAtMostOncePerRequest) {
  EXPECT_LE(client_allocations_per_request(Duration::zero()), 1.0);
  EXPECT_LE(client_allocations_per_request(milliseconds(50)), 1.0);
}

TEST(AllocBudget, TraceRecorderRecordsAndWrapsWithoutAllocating) {
  constexpr std::size_t kCapacity = 1024;
  obs::TraceRecorder trace(kCapacity);
  const std::uint64_t before = g_allocations;
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(2 * kCapacity); ++i) {
    trace.record(obs::TraceEvent{.at = TimePoint::epoch() + nanoseconds(i),
                                 .value = i,
                                 .node = NodeId{1},
                                 .kind = obs::EventKind::kCommit});
  }
  const std::uint64_t allocations = g_allocations - before;
  EXPECT_EQ(trace.size(), kCapacity);
  EXPECT_EQ(trace.overwritten(), kCapacity);
  EXPECT_EQ(allocations, 0u);
}

TEST(AllocBudget, CounterSeesAllocations) {
  // Guards the test itself: a replaced operator new that is not in effect
  // would make every budget above pass vacuously.
  // A direct operator new call: unlike a new-expression it cannot be elided.
  const std::uint64_t before = g_allocations;
  void* p = ::operator new(16);
  ::operator delete(p);
  EXPECT_EQ(g_allocations - before, 1u);
}

}  // namespace
}  // namespace domino
