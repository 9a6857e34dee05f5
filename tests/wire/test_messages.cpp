// Round-trip tests for every protocol message envelope in the repository.
#include <gtest/gtest.h>

#include "core/messages.h"
#include "epaxos/messages.h"
#include "fastpaxos/messages.h"
#include "measure/messages.h"
#include "mencius/messages.h"
#include "paxos/messages.h"
#include "wire/message.h"

namespace domino {
namespace {

sm::Command test_command() {
  sm::Command c;
  c.id = RequestId{NodeId{1001}, 42};
  c.key = "k0000001";
  c.value = "v0000042";
  return c;
}

template <typename M>
M round_trip(const M& msg) {
  const wire::Payload p = wire::encode_message(msg);
  EXPECT_EQ(wire::peek_type(p), M::kType);
  return wire::decode_message<M>(p);
}

TEST(Envelope, TypeMismatchThrows) {
  measure::Probe probe;
  probe.seq = 1;
  const wire::Payload p = wire::encode_message(probe);
  EXPECT_THROW(wire::decode_message<measure::ProbeReply>(p), wire::WireError);
}

TEST(Envelope, TrailingGarbageThrows) {
  measure::Probe probe;
  wire::Payload p = wire::encode_message(probe);
  p.push_back(0x00);
  EXPECT_THROW(wire::decode_message<measure::Probe>(p), wire::WireError);
}

TEST(MeasureMessages, ProbeRoundTrip) {
  measure::Probe m;
  m.seq = 77;
  m.sender_local_time = TimePoint::epoch() + milliseconds(5);
  const auto d = round_trip(m);
  EXPECT_EQ(d.seq, 77u);
  EXPECT_EQ(d.sender_local_time, m.sender_local_time);
}

TEST(MeasureMessages, ProbeReplyRoundTrip) {
  measure::ProbeReply m;
  m.seq = 3;
  m.echo_sender_local_time = TimePoint::epoch() + milliseconds(1);
  m.replica_local_time = TimePoint::epoch() + milliseconds(35);
  m.replication_latency = milliseconds(136);
  const auto d = round_trip(m);
  EXPECT_EQ(d.replica_local_time, m.replica_local_time);
  EXPECT_EQ(d.replication_latency, milliseconds(136));
}

TEST(PaxosMessages, AllRoundTrip) {
  EXPECT_EQ(round_trip(paxos::ClientRequest{test_command()}).command, test_command());
  const auto a = round_trip(paxos::Accept{9, test_command()});
  EXPECT_EQ(a.index, 9u);
  EXPECT_EQ(a.command, test_command());
  EXPECT_EQ(round_trip(paxos::AcceptReply{5}).index, 5u);
  const auto c = round_trip(paxos::Commit{6, test_command()});
  EXPECT_EQ(c.index, 6u);
  EXPECT_EQ(c.command, test_command());  // rides along for late learners
  EXPECT_EQ(round_trip(paxos::ClientReply{test_command().id}).request, test_command().id);
}

TEST(MenciusMessages, AllRoundTrip) {
  EXPECT_EQ(round_trip(mencius::ClientRequest{test_command()}).command, test_command());
  const auto a = round_trip(mencius::Accept{12, test_command(), 12});
  EXPECT_EQ(a.index, 12u);
  EXPECT_EQ(a.skip_through, 12u);
  const auto ar = round_trip(mencius::AcceptReply{12, 15});
  EXPECT_EQ(ar.skip_through, 15u);
  const auto c = round_trip(mencius::Commit{4, test_command()});
  EXPECT_EQ(c.index, 4u);
  EXPECT_EQ(c.command, test_command());  // rides along for late learners
  EXPECT_EQ(round_trip(mencius::CommitAck{7}).index, 7u);
  EXPECT_EQ(round_trip(mencius::Skip{33}).skip_through, 33u);
  EXPECT_EQ(round_trip(mencius::ClientReply{test_command().id}).request, test_command().id);
}

TEST(EpaxosMessages, PreAcceptRoundTrip) {
  epaxos::PreAccept m;
  m.instance = {NodeId{2}, 17};
  m.command = test_command();
  m.seq = 5;
  m.deps = {{NodeId{0}, 3}, {NodeId{1}, 9}};
  const auto d = round_trip(m);
  EXPECT_EQ(d.instance, m.instance);
  EXPECT_EQ(d.seq, 5u);
  EXPECT_EQ(d.deps, m.deps);
}

TEST(EpaxosMessages, RemainingRoundTrip) {
  epaxos::PreAcceptReply pr;
  pr.instance = {NodeId{1}, 2};
  pr.seq = 7;
  pr.deps = {{NodeId{2}, 1}};
  EXPECT_EQ(round_trip(pr).deps, pr.deps);

  epaxos::Accept a;
  a.instance = {NodeId{0}, 0};
  a.command = test_command();
  a.seq = 1;
  EXPECT_EQ(round_trip(a).command, test_command());

  EXPECT_EQ(round_trip(epaxos::AcceptReply{{NodeId{1}, 5}}).instance,
            (epaxos::InstanceId{NodeId{1}, 5}));

  epaxos::Commit c;
  c.instance = {NodeId{2}, 8};
  c.command = test_command();
  c.seq = 3;
  c.deps = {{NodeId{0}, 7}};
  const auto dc = round_trip(c);
  EXPECT_EQ(dc.deps, c.deps);
  EXPECT_EQ(round_trip(epaxos::ClientReply{test_command().id}).request, test_command().id);
}

TEST(FastPaxosMessages, AllRoundTrip) {
  EXPECT_EQ(round_trip(fastpaxos::ClientRequest{test_command()}).command, test_command());
  const auto n = round_trip(fastpaxos::AcceptNotice{44, test_command()});
  EXPECT_EQ(n.index, 44u);
  const auto ra = round_trip(fastpaxos::RecoveryAccept{7, true, {}});
  EXPECT_TRUE(ra.is_noop);
  EXPECT_EQ(round_trip(fastpaxos::RecoveryReply{7}).index, 7u);
  const auto cm = round_trip(fastpaxos::Commit{9, false, test_command()});
  EXPECT_FALSE(cm.is_noop);
  EXPECT_EQ(cm.command, test_command());
  EXPECT_EQ(round_trip(fastpaxos::ClientReply{test_command().id}).request, test_command().id);
}

TEST(DominoMessages, DfpRoundTrip) {
  core::DfpPropose p;
  p.ts = 123'456'789;
  p.command = test_command();
  const auto dp = round_trip(p);
  EXPECT_EQ(dp.ts, 123'456'789);
  EXPECT_EQ(dp.command, test_command());

  core::DfpAcceptNotice n;
  n.ts = 55;
  n.accepted = true;
  n.command = test_command();
  n.sender_local_time = TimePoint::epoch() + seconds(1);
  const auto dn = round_trip(n);
  EXPECT_TRUE(dn.accepted);
  EXPECT_EQ(dn.sender_local_time, n.sender_local_time);

  const auto cm = round_trip(core::DfpCommit{99, true, {}});
  EXPECT_TRUE(cm.is_noop);
  EXPECT_EQ(round_trip(core::DfpRecoveryAccept{4, false, test_command()}).command,
            test_command());
  EXPECT_EQ(round_trip(core::DfpRecoveryReply{13}).ts, 13);
  EXPECT_EQ(round_trip(core::DfpClientReply{test_command().id}).request, test_command().id);
}

TEST(DominoMessages, HeartbeatRoundTrip) {
  core::Heartbeat h;
  h.sender_local_time = TimePoint::epoch() + milliseconds(777);
  h.dfp_commit_frontier = 123456;
  const auto d = round_trip(h);
  EXPECT_EQ(d.sender_local_time, h.sender_local_time);
  EXPECT_EQ(d.dfp_commit_frontier, 123456);
}

TEST(DominoMessages, DmRoundTrip) {
  EXPECT_EQ(round_trip(core::DmPropose{test_command()}).command, test_command());
  const auto a = round_trip(core::DmAccept{1000, 2, test_command()});
  EXPECT_EQ(a.ts, 1000);
  EXPECT_EQ(a.lane, 2u);
  const auto ar = round_trip(core::DmAcceptReply{1000, 2});
  EXPECT_EQ(ar.lane, 2u);
  const auto c = round_trip(core::DmCommit{1000, 1});
  EXPECT_EQ(c.ts, 1000);
  EXPECT_EQ(round_trip(core::DmClientReply{test_command().id}).request, test_command().id);
}

}  // namespace
}  // namespace domino
