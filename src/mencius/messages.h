// Mencius wire messages.
//
// Log positions are pre-sharded round-robin: instance i is owned by replica
// (i mod n). Skip information ("my unused owned instances below F are
// no-ops") travels piggybacked on Accepts and AcceptReplies, and on periodic
// Skip heartbeats, relying on FIFO channels for safety — exactly the
// technique Domino's DFP borrows (paper Section 5.3.2: "DFP borrows ideas
// from Mencius").
#pragma once

#include "statemachine/command.h"
#include "wire/message.h"

namespace domino::mencius {

struct ClientRequest {
  static constexpr wire::MessageType kType = wire::MessageType::kMenciusClientRequest;
  sm::Command command;

  bool operator==(const ClientRequest&) const = default;
  void fields(auto& f) { f(command); }
};

struct Accept {
  static constexpr wire::MessageType kType = wire::MessageType::kMenciusAccept;
  std::uint64_t index = 0;
  sm::Command command;
  /// The sender's own-lane frontier, specific to this receiver: every owned
  /// index < skip_through that the receiver holds no command for is a
  /// no-op. The sender only advertises a frontier covering instances this
  /// receiver has acknowledged (plus genuinely unused ones), so the
  /// guarantee survives packet loss from crashes and partitions — plain
  /// FIFO ordering is not enough once a channel has dropped messages.
  std::uint64_t skip_through = 0;

  bool operator==(const Accept&) const = default;
  void fields(auto& f) { f(index, command, skip_through); }
};

struct AcceptReply {
  static constexpr wire::MessageType kType = wire::MessageType::kMenciusAcceptReply;
  std::uint64_t index = 0;
  std::uint64_t skip_through = 0;  // the replier's own-lane frontier

  bool operator==(const AcceptReply&) const = default;
  void fields(auto& f) { f(index, skip_through); }
};

struct Commit {
  static constexpr wire::MessageType kType = wire::MessageType::kMenciusCommit;
  std::uint64_t index = 0;
  /// The committed command rides along so a replica that missed the Accept
  /// (crashed or partitioned at the time) can still materialize the entry;
  /// a hole in a Mencius log would stall its execution frontier forever.
  sm::Command command;

  bool operator==(const Commit&) const = default;
  void fields(auto& f) { f(index, command); }
};

/// Follower -> owner: confirms a Commit was received, so the owner can stop
/// retransmitting it and drop the bookkeeping for that instance.
struct CommitAck {
  static constexpr wire::MessageType kType = wire::MessageType::kMenciusCommitAck;
  std::uint64_t index = 0;

  bool operator==(const CommitAck&) const = default;
  void fields(auto& f) { f(index); }
};

/// Heartbeat: advertises the sender's own-lane frontier so idle lanes do not
/// stall execution at other replicas.
struct Skip {
  static constexpr wire::MessageType kType = wire::MessageType::kMenciusSkip;
  std::uint64_t skip_through = 0;

  bool operator==(const Skip&) const = default;
  void fields(auto& f) { f(skip_through); }
};

struct ClientReply {
  static constexpr wire::MessageType kType = wire::MessageType::kMenciusClientReply;
  RequestId request;

  bool operator==(const ClientReply&) const = default;
  void fields(auto& f) { f(request); }
};

}  // namespace domino::mencius
