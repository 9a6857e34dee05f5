// EPaxos wire messages (paper reference [26]).
//
// Commands are identified by (command leader, instance number). Dependencies
// are the interfering instances a command must be ordered after; with the
// key-value write workload, two commands interfere iff they write the same
// key (the paper's workload uses exactly this definition).
#pragma once

#include <vector>

#include "statemachine/command.h"
#include "wire/message.h"

namespace domino::epaxos {

struct InstanceId {
  NodeId replica;
  std::uint64_t seq = 0;  // per-replica instance counter

  constexpr auto operator<=>(const InstanceId&) const = default;

  [[nodiscard]] std::string to_string() const {
    return replica.to_string() + "." + std::to_string(seq);
  }

  void fields(auto& f) { f(replica, seq); }
};

using DepList = std::vector<InstanceId>;

struct ClientRequest {
  static constexpr wire::MessageType kType = wire::MessageType::kEpaxosClientRequest;
  sm::Command command;

  bool operator==(const ClientRequest&) const = default;
  void fields(auto& f) { f(command); }
};

struct PreAccept {
  static constexpr wire::MessageType kType = wire::MessageType::kEpaxosPreAccept;
  InstanceId instance;
  sm::Command command;
  std::uint64_t seq = 0;  // ordering sequence number, not the instance seq
  DepList deps;

  bool operator==(const PreAccept&) const = default;
  void fields(auto& f) { f(instance, command, seq, deps); }
};

struct PreAcceptReply {
  static constexpr wire::MessageType kType = wire::MessageType::kEpaxosPreAcceptReply;
  InstanceId instance;
  std::uint64_t seq = 0;
  DepList deps;

  bool operator==(const PreAcceptReply&) const = default;
  void fields(auto& f) { f(instance, seq, deps); }
};

struct Accept {
  static constexpr wire::MessageType kType = wire::MessageType::kEpaxosAccept;
  InstanceId instance;
  sm::Command command;
  std::uint64_t seq = 0;
  DepList deps;

  bool operator==(const Accept&) const = default;
  void fields(auto& f) { f(instance, command, seq, deps); }
};

struct AcceptReply {
  static constexpr wire::MessageType kType = wire::MessageType::kEpaxosAcceptReply;
  InstanceId instance;

  bool operator==(const AcceptReply&) const = default;
  void fields(auto& f) { f(instance); }
};

struct Commit {
  static constexpr wire::MessageType kType = wire::MessageType::kEpaxosCommit;
  InstanceId instance;
  sm::Command command;
  std::uint64_t seq = 0;
  DepList deps;

  bool operator==(const Commit&) const = default;
  void fields(auto& f) { f(instance, command, seq, deps); }
};

struct ClientReply {
  static constexpr wire::MessageType kType = wire::MessageType::kEpaxosClientReply;
  RequestId request;

  bool operator==(const ClientReply&) const = default;
  void fields(auto& f) { f(request); }
};

}  // namespace domino::epaxos

template <>
struct std::hash<domino::epaxos::InstanceId> {
  std::size_t operator()(const domino::epaxos::InstanceId& id) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(id.replica.value()) << 40) ^ id.seq);
  }
};
