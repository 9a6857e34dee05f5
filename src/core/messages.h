// Domino wire messages (paper Section 5).
//
// DFP (Domino's Fast Paxos): clients broadcast timestamped proposals; every
// replica accepts or rejects against its clock; acceptances flow to the
// client (fast-path learner) and the DFP coordinator (recovery + no-op
// learner). The coordinator resolves collisions with ballot-1 recovery and
// disseminates a committed frontier for the no-op positions.
//
// DM (Domino's Mencius): clients send to a chosen leader; the leader stamps
// the request with `now + predicted replication latency` and replicates to
// a majority.
//
// Heartbeats carry each replica's clock watermark (no-op acceptance,
// Section 5.3.2) and — from the coordinator — the DFP committed frontier.
#pragma once

#include "log/position.h"
#include "statemachine/command.h"
#include "wire/message.h"

namespace domino::core {

struct DfpPropose {
  static constexpr wire::MessageType kType = wire::MessageType::kDfpPropose;
  std::int64_t ts = 0;  // target DFP log position = predicted supermajority arrival time
  sm::Command command;

  bool operator==(const DfpPropose&) const = default;
  void fields(auto& f) { f(ts, command); }
};

struct DfpAcceptNotice {
  static constexpr wire::MessageType kType = wire::MessageType::kDfpAcceptNotice;
  std::int64_t ts = 0;
  bool accepted = false;
  sm::Command command;
  TimePoint sender_local_time;  // piggybacked watermark (Section 5.3.2)

  bool operator==(const DfpAcceptNotice&) const = default;
  void fields(auto& f) { f(ts, accepted, command, sender_local_time); }
};

struct DfpCommit {
  static constexpr wire::MessageType kType = wire::MessageType::kDfpCommit;
  std::int64_t ts = 0;
  bool is_noop = false;  // true: the position resolved as no-op
  sm::Command command;   // meaningful when !is_noop

  bool operator==(const DfpCommit&) const = default;
  void fields(auto& f) { f(ts, is_noop, command); }
};

struct DfpRecoveryAccept {
  static constexpr wire::MessageType kType = wire::MessageType::kDfpRecoveryAccept;
  std::int64_t ts = 0;
  bool is_noop = false;
  sm::Command command;

  bool operator==(const DfpRecoveryAccept&) const = default;
  void fields(auto& f) { f(ts, is_noop, command); }
};

struct DfpRecoveryReply {
  static constexpr wire::MessageType kType = wire::MessageType::kDfpRecoveryReply;
  std::int64_t ts = 0;

  bool operator==(const DfpRecoveryReply&) const = default;
  void fields(auto& f) { f(ts); }
};

/// Coordinator -> client notification for slow-path outcomes.
struct DfpClientReply {
  static constexpr wire::MessageType kType = wire::MessageType::kDfpClientReply;
  RequestId request;

  bool operator==(const DfpClientReply&) const = default;
  void fields(auto& f) { f(request); }
};

struct Heartbeat {
  static constexpr wire::MessageType kType = wire::MessageType::kDominoHeartbeat;
  TimePoint sender_local_time;        // the sender's clock watermark
  std::int64_t dfp_commit_frontier = 0;  // > 0 only from the coordinator

  bool operator==(const Heartbeat&) const = default;
  void fields(auto& f) { f(sender_local_time, dfp_commit_frontier); }
};

struct DmPropose {
  static constexpr wire::MessageType kType = wire::MessageType::kDmPropose;
  sm::Command command;

  bool operator==(const DmPropose&) const = default;
  void fields(auto& f) { f(command); }
};

struct DmAccept {
  static constexpr wire::MessageType kType = wire::MessageType::kDmAccept;
  std::int64_t ts = 0;
  std::uint32_t lane = 0;
  sm::Command command;

  bool operator==(const DmAccept&) const = default;
  void fields(auto& f) { f(ts, lane, command); }
};

struct DmAcceptReply {
  static constexpr wire::MessageType kType = wire::MessageType::kDmAcceptReply;
  std::int64_t ts = 0;
  std::uint32_t lane = 0;

  bool operator==(const DmAcceptReply&) const = default;
  void fields(auto& f) { f(ts, lane); }
};

struct DmCommit {
  static constexpr wire::MessageType kType = wire::MessageType::kDmCommit;
  std::int64_t ts = 0;
  std::uint32_t lane = 0;

  bool operator==(const DmCommit&) const = default;
  void fields(auto& f) { f(ts, lane); }
};

struct DmClientReply {
  static constexpr wire::MessageType kType = wire::MessageType::kDmClientReply;
  RequestId request;

  bool operator==(const DmClientReply&) const = default;
  void fields(auto& f) { f(request); }
};

// ---------------------------------------------------------------------------
// Failure handling (paper Section 5.8). When a replica crashes, a successor
// revokes its DM lane (learning every live entry from the remaining
// replicas, committing them, and no-op-filling the rest), and the DFP
// coordinator recovers no-op ranges that the dead replica's frozen clock
// watermark would otherwise block forever.

struct RangeEntryWire {
  std::int64_t ts = 0;
  sm::Command command;

  bool operator==(const RangeEntryWire&) const = default;
  void fields(auto& f) { f(ts, command); }
};

struct DmRevoke {
  static constexpr wire::MessageType kType = wire::MessageType::kDmRevoke;
  std::uint32_t lane = 0;
  std::int64_t from_ts = 0;
  std::int64_t to_ts = 0;

  bool operator==(const DmRevoke&) const = default;
  void fields(auto& f) { f(lane, from_ts, to_ts); }
};

struct DmRevokeReply {
  static constexpr wire::MessageType kType = wire::MessageType::kDmRevokeReply;
  std::uint32_t lane = 0;
  std::int64_t from_ts = 0;
  std::int64_t to_ts = 0;
  std::vector<RangeEntryWire> entries;

  bool operator==(const DmRevokeReply&) const = default;
  void fields(auto& f) { f(lane, from_ts, to_ts, entries); }
};

struct DmRevokeResult {
  static constexpr wire::MessageType kType = wire::MessageType::kDmRevokeResult;
  std::uint32_t lane = 0;
  std::int64_t from_ts = 0;
  std::int64_t through_ts = 0;
  std::vector<RangeEntryWire> entries;  // committed; unlisted range = no-ops

  bool operator==(const DmRevokeResult&) const = default;
  void fields(auto& f) { f(lane, from_ts, through_ts, entries); }
};

struct DfpRangeRecover {
  static constexpr wire::MessageType kType = wire::MessageType::kDfpRangeRecover;
  std::int64_t from_ts = 0;
  std::int64_t to_ts = 0;

  bool operator==(const DfpRangeRecover&) const = default;
  void fields(auto& f) { f(from_ts, to_ts); }
};

struct DfpRangeReply {
  static constexpr wire::MessageType kType = wire::MessageType::kDfpRangeReply;
  std::int64_t from_ts = 0;
  std::int64_t to_ts = 0;
  std::vector<RangeEntryWire> entries;

  bool operator==(const DfpRangeReply&) const = default;
  void fields(auto& f) { f(from_ts, to_ts, entries); }
};

struct DfpRangeResolve {
  static constexpr wire::MessageType kType = wire::MessageType::kDfpRangeResolve;
  std::int64_t from_ts = 0;
  std::int64_t through_ts = 0;
  std::vector<RangeEntryWire> entries;  // committed; unlisted range = no-ops

  bool operator==(const DfpRangeResolve&) const = default;
  void fields(auto& f) { f(from_ts, through_ts, entries); }
};

}  // namespace domino::core
