// Client commands applied to the replicated state machine.
//
// The evaluation workload is the EPaxos key-value write workload the paper
// mirrors (Section 7.1): 8-byte keys, 8-byte values, write-only.
#pragma once

#include <compare>
#include <string>

#include "common/ids.h"

namespace domino::sm {

struct Command {
  RequestId id;
  std::string key;
  std::string value;

  auto operator<=>(const Command&) const = default;

  [[nodiscard]] bool conflicts_with(const Command& other) const { return key == other.key; }

  void fields(auto& f) { f(id, key, value); }
};

}  // namespace domino::sm
