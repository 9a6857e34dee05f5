// One fixed sample of every wire message type, each field set to a
// non-default value. Shared by the golden-bytes test (which pins the
// encoding of each sample) and the codec fuzz test (which round-trips and
// mutates each sample), so the two can never cover different type sets.
#pragma once

#include <limits>

#include "core/messages.h"
#include "epaxos/messages.h"
#include "fastpaxos/messages.h"
#include "measure/messages.h"
#include "measure/proxy.h"
#include "mencius/messages.h"
#include "paxos/messages.h"
#include "recovery/messages.h"

namespace domino::test {

inline sm::Command sample_command(std::uint64_t seq = 42) {
  sm::Command c;
  c.id = RequestId{NodeId{1001}, seq};
  c.key = "k0000001";
  c.value = "v0000042";
  return c;
}

/// Call `fn(sample)` once per wire message type, in tag order.
template <typename Fn>
void for_each_sample(Fn&& fn) {
  const TimePoint t0 = TimePoint::epoch() + milliseconds(1234);
  const sm::Command cmd = sample_command();

  fn(measure::Probe{77, t0});
  fn(measure::ProbeReply{3, t0, t0 + milliseconds(35), milliseconds(136)});

  fn(paxos::ClientRequest{cmd});
  fn(paxos::Accept{9, cmd});
  fn(paxos::AcceptReply{300});
  fn(paxos::Commit{9, cmd});
  fn(paxos::ClientReply{cmd.id});

  fn(mencius::ClientRequest{cmd});
  fn(mencius::Accept{12, cmd, 15});
  fn(mencius::AcceptReply{12, 16});
  fn(mencius::Commit{12, cmd});
  fn(mencius::Skip{129});
  fn(mencius::ClientReply{cmd.id});
  fn(mencius::CommitAck{12});

  const epaxos::InstanceId inst{NodeId{2}, 40};
  const epaxos::DepList deps{{NodeId{0}, 1}, {NodeId{1}, 70000}};
  fn(epaxos::ClientRequest{cmd});
  fn(epaxos::PreAccept{inst, cmd, 7, deps});
  fn(epaxos::PreAcceptReply{inst, 8, deps});
  fn(epaxos::Accept{inst, cmd, 9, deps});
  fn(epaxos::AcceptReply{inst});
  fn(epaxos::Commit{inst, cmd, 10, deps});
  fn(epaxos::ClientReply{cmd.id});

  fn(fastpaxos::ClientRequest{cmd});
  fn(fastpaxos::AcceptNotice{5, cmd});
  fn(fastpaxos::RecoveryAccept{6, true, cmd});
  fn(fastpaxos::RecoveryReply{6});
  fn(fastpaxos::Commit{6, true, cmd});
  fn(fastpaxos::ClientReply{cmd.id});

  const std::int64_t ts = 1'700'000'123'456'789;
  const std::vector<core::RangeEntryWire> entries{{ts, cmd}, {ts + 5, sample_command(43)}};
  fn(core::DfpPropose{ts, cmd});
  fn(core::DfpAcceptNotice{ts, true, cmd, t0});
  fn(core::DfpCommit{ts, true, cmd});
  fn(core::DfpClientReply{cmd.id});
  fn(core::DfpRecoveryAccept{ts, true, cmd});
  fn(core::DfpRecoveryReply{ts});
  fn(core::Heartbeat{t0, -ts});
  fn(core::DmPropose{cmd});
  fn(core::DmAccept{ts, 3, cmd});
  fn(core::DmAcceptReply{ts, 3});
  fn(core::DmCommit{ts, 3});
  fn(core::DmClientReply{cmd.id});

  measure::ProxyReport report;
  report.percentile = 99.5;
  report.entries.push_back({NodeId{4}, milliseconds(80), milliseconds(-3), milliseconds(90),
                            false, true});
  report.entries.push_back({NodeId{5}, Duration::max(), Duration::max(), Duration::max(),
                            true, false});
  fn(measure::ProxyQuery{});
  fn(report);

  fn(core::DmRevoke{2, ts, ts + 100});
  fn(core::DmRevokeReply{2, ts, ts + 100, entries});
  fn(core::DmRevokeResult{2, ts, ts + 100, entries});
  fn(core::DfpRangeRecover{ts, ts + 100});
  fn(core::DfpRangeReply{ts, ts + 100, entries});
  fn(core::DfpRangeResolve{ts, ts + 100, entries});

  fn(recovery::CatchupRequest{3, 120});
  recovery::CatchupReply reply;
  reply.epoch = 7;
  reply.applied = 512;
  reply.frontier = -4;
  reply.frontier_lane = 3;
  reply.snapshot = {recovery::KvEntry{"k1", "v1"}, recovery::KvEntry{"", "v3"}};
  reply.watermarks = {0, 1729, -55};
  reply.entries = {recovery::CatchupEntry{41, 0, cmd, {}},
                   recovery::CatchupEntry{-17, 2, sample_command(10), wire::Payload{1, 2, 3}}};
  fn(reply);
}

}  // namespace domino::test
