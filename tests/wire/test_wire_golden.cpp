// Golden wire bytes: the exact encoding of one fixed sample of every message
// type, of every catch-up `aux` layout and of every durable-record body,
// pinned as hex. Any change to a codec that moves a byte fails here; a
// deliberate format change must update the hex in the same commit.
//
// Messages are encoded directly. The aux blobs and durable records are
// protocol-internal, so they are captured from small live clusters: each
// replica persists its records into a DurableStore, and a recorder node
// feeds it a catch-up reply whose aux bytes are given here as hex (decode
// side) and then asks for the replica's own catch-up reply (encode side).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/replica.h"
#include "epaxos/client.h"
#include "epaxos/replica.h"
#include "fastpaxos/client.h"
#include "fastpaxos/replica.h"
#include "mencius/client.h"
#include "mencius/replica.h"
#include "paxos/client.h"
#include "paxos/replica.h"
#include "recovery/durable.h"
#include "support/fixtures.h"
#include "wire/samples.h"

namespace domino {
namespace {

std::string hex(const wire::Payload& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

wire::Payload unhex(std::string_view text) {
  wire::Payload out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2) {
    const std::string byte(text.substr(i, 2));
    out.push_back(static_cast<std::uint8_t>(std::stoi(byte, nullptr, 16)));
  }
  return out;
}

// ---------------------------------------------------------------- messages

const std::map<std::string, std::string>& golden_messages() {
  static const std::map<std::string, std::string> golden = {
      {"Probe", "01004d80e2ea9809"},
      {"ProbeReply", "02000380e2ea9809809d9bba0980c8d98101"},
      {"PaxosClientRequest", "0a00e90300002a086b30303030303031087630303030303432"},
      {"PaxosAccept", "0b0009e90300002a086b30303030303031087630303030303432"},
      {"PaxosAcceptReply", "0c00ac02"},
      {"PaxosCommit", "0d0009e90300002a086b30303030303031087630303030303432"},
      {"PaxosClientReply", "0e00e90300002a"},
      {"MenciusClientRequest", "1400e90300002a086b30303030303031087630303030303432"},
      {"MenciusAccept", "15000ce90300002a086b303030303030310876303030303034320f"},
      {"MenciusAcceptReply", "16000c10"},
      {"MenciusCommit", "17000ce90300002a086b30303030303031087630303030303432"},
      {"MenciusSkip", "18008101"},
      {"MenciusClientReply", "1900e90300002a"},
      {"MenciusCommitAck", "1b000c"},
      {"EpaxosClientRequest", "1e00e90300002a086b30303030303031087630303030303432"},
      {"EpaxosPreAccept",
       "1f000200000028e90300002a086b303030303030310876303030303034320702"
       "000000000101000000f0a204"},
      {"EpaxosPreAcceptReply", "200002000000280802000000000101000000f0a204"},
      {"EpaxosAccept",
       "21000200000028e90300002a086b303030303030310876303030303034320902"
       "000000000101000000f0a204"},
      {"EpaxosAcceptReply", "22000200000028"},
      {"EpaxosCommit",
       "23000200000028e90300002a086b303030303030310876303030303034320a02"
       "000000000101000000f0a204"},
      {"EpaxosClientReply", "2400e90300002a"},
      {"FastPaxosClientRequest", "2800e90300002a086b30303030303031087630303030303432"},
      {"FastPaxosAcceptNotice", "290005e90300002a086b30303030303031087630303030303432"},
      {"FastPaxosRecoveryAccept", "2a000601e90300002a086b30303030303031087630303030303432"},
      {"FastPaxosRecoveryReply", "2b0006"},
      {"FastPaxosCommit", "2c000601e90300002a086b30303030303031087630303030303432"},
      {"FastPaxosClientReply", "2d00e90300002a"},
      {"DfpPropose",
       "3200aab4d0f783898506e90300002a086b303030303030310876303030303034"
       "32"},
      {"DfpAcceptNotice",
       "3300aab4d0f78389850601e90300002a086b3030303030303108763030303030"
       "343280e2ea9809"},
      {"DfpCommit",
       "3400aab4d0f78389850601e90300002a086b3030303030303108763030303030"
       "3432"},
      {"DfpClientReply", "3500e90300002a"},
      {"DfpRecoveryAccept",
       "3600aab4d0f78389850601e90300002a086b3030303030303108763030303030"
       "3432"},
      {"DfpRecoveryReply", "3700aab4d0f783898506"},
      {"DominoHeartbeat", "380080e2ea9809a9b4d0f783898506"},
      {"DmPropose", "3900e90300002a086b30303030303031087630303030303432"},
      {"DmAccept",
       "3a00aab4d0f78389850603e90300002a086b3030303030303108763030303030"
       "3432"},
      {"DmAcceptReply", "3b00aab4d0f78389850603"},
      {"DmCommit", "3c00aab4d0f78389850603"},
      {"DmClientReply", "3d00e90300002a"},
      {"ProxyQuery", "4100"},
      {"ProxyReport",
       "4200de26000000000000020400000080d0a54cff9aee0280aaea550001050000"
       "00feffffffffffffffff01feffffffffffffffff01feffffffffffffffff0101"
       "00"},
      {"DmRevoke", "460002aab4d0f783898506f2b5d0f783898506"},
      {"DmRevokeReply",
       "470002aab4d0f783898506f2b5d0f78389850602aab4d0f783898506e9030000"
       "2a086b30303030303031087630303030303432b4b4d0f783898506e90300002b"
       "086b30303030303031087630303030303432"},
      {"DmRevokeResult",
       "480002aab4d0f783898506f2b5d0f78389850602aab4d0f783898506e9030000"
       "2a086b30303030303031087630303030303432b4b4d0f783898506e90300002b"
       "086b30303030303031087630303030303432"},
      {"DfpRangeRecover", "4900aab4d0f783898506f2b5d0f783898506"},
      {"DfpRangeReply",
       "4a00aab4d0f783898506f2b5d0f78389850602aab4d0f783898506e90300002a"
       "086b30303030303031087630303030303432b4b4d0f783898506e90300002b08"
       "6b30303030303031087630303030303432"},
      {"DfpRangeResolve",
       "4b00aab4d0f783898506f2b5d0f78389850602aab4d0f783898506e90300002a"
       "086b30303030303031087630303030303432b4b4d0f783898506e90300002b08"
       "6b30303030303031087630303030303432"},
      {"CatchupRequest", "4c000378"},
      {"CatchupReply",
       "4d00078004070302026b31027631000276330300821b6d025200e90300002a08"
       "6b30303030303031087630303030303432002102e90300000a086b3030303030"
       "303108763030303030343203010203"},
  };
  return golden;
}

TEST(WireGolden, EveryMessageTypeEncodesToPinnedBytes) {
  std::size_t count = 0;
  test::for_each_sample([&](const auto& msg) {
    const std::string name = wire::message_type_name(msg.kType);
    const std::string actual = hex(wire::encode_message(msg));
    const auto it = golden_messages().find(name);
    ++count;
    if (it == golden_messages().end()) {
      ADD_FAILURE() << "no golden bytes for " << name << ": {\"" << name << "\", \"" << actual
                    << "\"},";
      return;
    }
    EXPECT_EQ(actual, it->second) << name;
  });
  EXPECT_EQ(count, 49u);
  EXPECT_EQ(golden_messages().size(), 49u);
}

// ----------------------------------------------- durable records and aux

/// Records every packet it receives; sends whatever the test hands it.
class Recorder : public rpc::Node {
 public:
  using Node::Node;

  /// The last catch-up reply received, as hex.
  std::string last_catchup_reply;

 protected:
  void on_packet(const net::Packet& packet) override {
    if (wire::peek_type(packet.payload) == wire::MessageType::kCatchupReply) {
      last_catchup_reply = hex(packet.payload);
    }
  }
};

/// What one protocol's cluster left behind: every durable record of every
/// replica (one "node tag hex" line each) and one replica's catch-up reply.
struct Capture {
  std::string durable;
  std::string catchup_reply;
};

struct Cluster {
  sim::Simulator simulator;
  net::Network network{simulator, test::four_dc(), 1};
  recovery::DurableStore durable;
  std::vector<NodeId> rids = test::replica_ids(3);
  Recorder recorder{NodeId{666}, 3, network};

  Cluster() { recorder.attach(); }

  void run_until(Duration t) { simulator.run_until(TimePoint::epoch() + t); }

  template <typename R>
  void attach_replicas(std::vector<std::unique_ptr<R>>& replicas) {
    for (auto& r : replicas) {
      r->attach();
      r->enable_durability(durable);
    }
  }

  /// Hand `target` a catch-up reply carrying `entries` (epoch 0 matches a
  /// replica that never restarted), then ask it for its own reply.
  Capture finish(NodeId target, std::vector<recovery::CatchupEntry> entries, Duration at) {
    if (!entries.empty()) {
      recovery::CatchupReply forged;
      forged.entries = std::move(entries);
      recorder.send(target, forged);
    }
    run_until(at + milliseconds(200));
    recorder.send(target, recovery::CatchupRequest{0, 0});
    run_until(at + milliseconds(400));

    Capture c;
    std::ostringstream out;
    for (NodeId r : rids) {
      for (const auto& rec : durable.log_of(r).records()) {
        out << r.value() << ' ' << static_cast<int>(rec.tag) << ' ' << hex(rec.body) << '\n';
      }
    }
    c.durable = out.str();
    c.catchup_reply = recorder.last_catchup_reply;
    return c;
  }
};

Capture run_paxos() {
  Cluster c;
  std::vector<std::unique_ptr<paxos::Replica>> replicas;
  for (std::size_t i = 0; i < 3; ++i) {
    replicas.push_back(
        std::make_unique<paxos::Replica>(c.rids[i], i, c.network, c.rids, c.rids[0]));
  }
  c.attach_replicas(replicas);
  paxos::Client client(NodeId{1000}, 3, c.network, c.rids[0]);
  client.attach();
  for (std::uint64_t s = 0; s < 2; ++s) client.submit(test::make_command(client.id(), s));
  c.run_until(seconds(1));
  return c.finish(c.rids[1], {}, seconds(1));
}

Capture run_mencius() {
  Cluster c;
  std::vector<std::unique_ptr<mencius::Replica>> replicas;
  for (std::size_t i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<mencius::Replica>(c.rids[i], i, c.network, c.rids));
  }
  c.attach_replicas(replicas);
  mencius::Client client(NodeId{1000}, 3, c.network, c.rids[0]);
  client.attach();
  for (std::uint64_t s = 0; s < 2; ++s) client.submit(test::make_command(client.id(), s));
  c.run_until(seconds(1));
  return c.finish(c.rids[1], {}, seconds(1));
}

Capture run_epaxos() {
  Cluster c;
  std::vector<std::unique_ptr<epaxos::Replica>> replicas;
  for (std::size_t i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<epaxos::Replica>(c.rids[i], i, c.network, c.rids));
  }
  c.attach_replicas(replicas);
  epaxos::Client client(NodeId{1000}, 3, c.network, c.rids[0]);
  client.attach();
  for (std::uint64_t s = 0; s < 2; ++s) client.submit(test::make_command(client.id(), s));
  c.run_until(seconds(1));
  // Aux: instance 2.40, seq 9, deps {0.1, 1.70000}, not executed.
  return c.finish(c.rids[1],
                  {recovery::CatchupEntry{0, 0, test::make_command(NodeId{1001}, 5, "z"),
                                          unhex("02000000280902000000000101000000f0a20400")}},
                  seconds(1));
}

Capture run_fastpaxos() {
  Cluster c;
  std::vector<std::unique_ptr<fastpaxos::Replica>> replicas;
  for (std::size_t i = 0; i < 3; ++i) {
    replicas.push_back(
        std::make_unique<fastpaxos::Replica>(c.rids[i], i, c.network, c.rids, c.rids[0]));
  }
  c.attach_replicas(replicas);
  fastpaxos::Client client(NodeId{1000}, 3, c.network, c.rids);
  client.attach();
  for (std::uint64_t s = 0; s < 2; ++s) client.submit(test::make_command(client.id(), s));
  c.run_until(seconds(1));
  // Aux: a skipped range [10, 12] (range end 12).
  return c.finish(c.rids[0], {recovery::CatchupEntry{10, 0, sm::Command{}, unhex("0c")}},
                  seconds(1));
}

Capture run_domino() {
  Cluster c;
  std::vector<std::unique_ptr<core::Replica>> replicas;
  for (std::size_t i = 0; i < 3; ++i) {
    replicas.push_back(
        std::make_unique<core::Replica>(c.rids[i], i, c.network, c.rids, c.rids[0]));
  }
  c.attach_replicas(replicas);
  for (auto& r : replicas) r->start();
  core::ClientConfig dfp;
  dfp.mode = core::ClientConfig::Mode::kDfpOnly;
  core::ClientConfig dm;
  dm.mode = core::ClientConfig::Mode::kDmOnly;
  core::Client dfp_client(NodeId{1000}, 3, c.network, c.rids, dfp);
  core::Client dm_client(NodeId{1001}, 2, c.network, c.rids, dm);
  for (core::Client* client : {&dfp_client, &dm_client}) {
    client->attach();
    client->start();
  }
  c.run_until(seconds(2));
  dfp_client.submit(test::make_command(dfp_client.id(), 0, "a"));
  dm_client.submit(test::make_command(dm_client.id(), 0, "b"));
  c.run_until(seconds(3));
  // Aux: a committed (not no-op) entry at (ts 60 s, lane 0).
  return c.finish(c.rids[1],
                  {recovery::CatchupEntry{60'000'000'000, 0,
                                          test::make_command(NodeId{1001}, 5, "z"), unhex("00")}},
                  seconds(3));
}

void expect_capture(const Capture& actual, const Capture& golden) {
  EXPECT_EQ(actual.durable, golden.durable) << "actual durable records:\n" << actual.durable;
  EXPECT_EQ(actual.catchup_reply, golden.catchup_reply)
      << "actual catch-up reply:\n" << actual.catchup_reply;
}

TEST(WireGolden, PaxosDurableRecords) {
  expect_capture(run_paxos(), Capture{
      "0 2 00e803000000016b017601e8030000\n"
      "0 2 01e803000001016b017601e8030000\n"
      "0 3 00e803000000016b0176\n"
      "0 3 01e803000001016b0176\n"
      "1 2 00e803000000016b017600\n"
      "1 2 01e803000001016b017600\n"
      "1 3 00e803000000016b0176\n"
      "1 3 01e803000001016b0176\n"
      "2 2 00e803000000016b017600\n"
      "2 2 01e803000001016b017600\n"
      "2 3 00e803000000016b0176\n"
      "2 3 01e803000001016b0176\n",
      "4d000002040001016b01760000",
  });
}

TEST(WireGolden, MenciusDurableRecords) {
  expect_capture(run_mencius(), Capture{
      "0 2 00e803000000016b017601e8030000\n"
      "0 2 03e803000001016b017601e8030000\n"
      "0 3 00e803000000016b0176\n"
      "0 3 03e803000001016b0176\n"
      "1 2 00e803000000016b017600\n"
      "1 2 03e803000001016b017600\n"
      "1 3 00e803000000016b0176\n"
      "1 3 03e803000001016b0176\n"
      "2 2 00e803000000016b017600\n"
      "2 2 03e803000001016b017600\n"
      "2 3 00e803000000016b0176\n"
      "2 3 03e803000001016b0176\n",
      "4d000001040001016b017600010600e803000001016b017600",
  });
}

TEST(WireGolden, EpaxosDurableRecordsAndAux) {
  expect_capture(run_epaxos(), Capture{
      "0 2 0000000000e803000000016b017601000001e8030000\n"
      "0 2 0000000001e803000001016b0176020100000000000001e8030000\n"
      "0 3 0000000000e803000000016b017601000200\n"
      "0 3 0000000001e803000001016b0176020100000000000200\n"
      "1 2 0000000000e803000000016b017601000000\n"
      "1 2 0000000001e803000001016b0176020100000000000000\n"
      "1 3 0000000000e803000000016b017601000200\n"
      "1 3 0000000001e803000001016b0176020100000000000200\n"
      "2 2 0000000000e803000000016b017601000000\n"
      "2 2 0000000001e803000001016b0176020100000000000000\n"
      "2 3 0000000000e803000000016b017601000200\n"
      "2 3 0000000001e803000001016b0176020100000000000200\n",
      "4d000002040001016b017600030000e903000005017a01761402000000280902"
      "000000000101000000f0a204000000e803000001016b01760d00000000010201"
      "0000000000010000e803000000016b0176080000000000010001",
  });
}

TEST(WireGolden, FastPaxosDurableRecordsAndAux) {
  expect_capture(run_fastpaxos(), Capture{
      "0 2 00e803000000016b0176\n"
      "0 2 01e803000001016b0176\n"
      "0 3 0000e803000000016b0176\n"
      "0 3 0100e803000001016b0176\n"
      "1 2 00e803000000016b0176\n"
      "1 2 01e803000001016b0176\n"
      "1 3 0000e803000000016b0176\n"
      "1 3 0100e803000001016b0176\n"
      "2 2 00e803000000016b0176\n"
      "2 2 01e803000001016b0176\n"
      "2 3 0000e803000000016b0176\n"
      "2 3 0100e803000001016b0176\n",
      "4d000002040001016b017600011400ffffffff000000010c",
  });
}

TEST(WireGolden, DominoDurableRecordsAndAux) {
  expect_capture(run_domino(), Capture{
      "0 2 a4a099900f02e903000000016201760000\n"
      "0 3 80defa8f0f030100\n"
      "0 2 8ac68db60f00e803000000016101760101\n"
      "0 3 a4a099900f020001e90300000001620176\n"
      "0 3 8ac68db60f000000\n"
      "1 2 a4a099900f02e903000000016201760000\n"
      "1 2 80defa8f0f03e803000000016101760000\n"
      "1 3 a4a099900f020001e90300000001620176\n"
      "1 3 80defa8f0f030100\n"
      "1 2 8ac68db60f00e803000000016101760000\n"
      "1 3 8ac68db60f000001e80300000001610176\n"
      "2 2 a4a099900f02e903000000016201760100\n"
      "2 2 80defa8f0f03e803000000016101760000\n"
      "2 3 a4a099900f020000\n"
      "2 3 80defa8f0f030100\n"
      "2 2 8ac68db60f00e803000000016101760000\n"
      "2 3 8ac68db60f000001e80300000001610176\n",
      "4d0000028080e1eb17020201610176016201760480daa5f51780b4eafe178080"
      "e1eb178080e1eb170180e0ba84bf0300e903000005017a01760100",
  });
}

}  // namespace
}  // namespace domino
