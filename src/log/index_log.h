// Index-based replicated log, used by the baseline protocols (Multi-Paxos,
// Mencius, classic Fast Paxos): dense uint64 positions, a committed flag per
// occupied position, a coalesced skip/no-op set, and a contiguous execution
// frontier.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/interval_set.h"
#include "statemachine/command.h"

namespace domino::log {

enum class EntryStatus : std::uint8_t { kAccepted, kCommitted, kExecuted };

class IndexLog {
 public:
  struct Entry {
    sm::Command command;
    EntryStatus status = EntryStatus::kAccepted;
  };

  /// Place (or replace) a command at `index` in Accepted state. Replacing a
  /// committed entry is a logic error.
  void accept(std::uint64_t index, sm::Command command);

  /// Mark the entry at `index` committed; the entry must exist unless
  /// `command` is provided (commit-before-accept, e.g. a late learner).
  void commit(std::uint64_t index, std::optional<sm::Command> command = std::nullopt);

  /// Mark [lo, hi] as skipped (committed no-ops). Empty when lo > hi.
  /// Throws std::out_of_range when hi exceeds the int64 range.
  void skip(std::uint64_t lo, std::uint64_t hi);

  [[nodiscard]] bool is_skipped(std::uint64_t index) const {
    return skips_.contains(static_cast<std::int64_t>(index));
  }
  [[nodiscard]] const Entry* entry(std::uint64_t index) const;
  [[nodiscard]] bool is_committed(std::uint64_t index) const;

  /// Committed-but-unexecuted entries at the head of the log: all entries
  /// whose every predecessor is executed or skipped. Marks them Executed
  /// and returns them in order.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, sm::Command>> drain_executable();

  /// All committed-but-unexecuted entries, in index order (non-destructive).
  /// A catch-up responder sends these as the committed suffix its executed
  /// snapshot does not cover.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, sm::Command>> committed_unexecuted()
      const;

  /// Skipped (no-op) ranges with hi >= from, clipped to start at `from`,
  /// ascending. A catch-up responder sends these alongside
  /// committed_unexecuted() for protocols whose no-ops are decided by
  /// one-shot broadcasts (classic Fast Paxos) rather than re-advertised.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> skipped_after(
      std::uint64_t from) const;

  /// Index of the first position that is neither executed nor skipped.
  [[nodiscard]] std::uint64_t execution_frontier() const { return exec_frontier_; }

  /// Jump the execution frontier to `frontier` after installing a peer's
  /// executed-state snapshot (crash recovery): positions below it are
  /// covered by the snapshot, so local entries there are dropped and the
  /// gap is marked skipped. No-op when `frontier` is not ahead.
  void fast_forward(std::uint64_t frontier);

  [[nodiscard]] std::size_t occupied_count() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t executed_count() const { return executed_; }
  [[nodiscard]] std::size_t skip_interval_count() const { return skips_.interval_count(); }

 private:
  std::map<std::uint64_t, Entry> entries_;
  IntervalSet skips_;
  std::uint64_t exec_frontier_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace domino::log
