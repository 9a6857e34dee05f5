// Durable record bodies shared by the log-index protocols (Multi-Paxos,
// Mencius, Fast Paxos). Like the wire messages, each body is one field list
// (wire/fields.h) encoded and decoded by the generic codec.
#pragma once

#include <cstdint>
#include <optional>

#include "statemachine/command.h"
#include "wire/fields.h"

namespace domino::recovery {

/// A command at a log index: Multi-Paxos and Mencius kCommitted, Fast Paxos
/// kAccepted.
struct IndexEntry {
  std::uint64_t index = 0;
  sm::Command command;

  void fields(auto& f) { f(index, command); }
};

/// Multi-Paxos and Mencius kAccepted: the proposer's own record carries the
/// requesting client, so a restarted proposer can still answer it.
struct IndexAccept {
  std::uint64_t index = 0;
  sm::Command command;
  std::optional<NodeId> client;

  void fields(auto& f) { f(index, command, client); }
};

}  // namespace domino::recovery
