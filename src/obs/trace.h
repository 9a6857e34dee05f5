// Structured protocol event tracing.
//
// A TraceRecorder captures fixed-size events into a ring buffer that is
// reserved up front and written only as it fills, so an unused slot costs
// neither set-up time nor resident memory. Timestamps are virtual time only
// (never a wall clock), and events are recorded in simulator execution
// order, so two runs with the same seed produce byte-identical trace output
// — the property the evaluation harness relies on to diff runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/time.h"

namespace domino::obs {

/// The protocol event taxonomy (see DESIGN.md "Observability").
enum class EventKind : std::uint8_t {
  kRequestSubmit,        // client submits a command
  kFastAccept,           // DFP / fast-quorum fast-path resolution
  kCoordinatorFallback,  // request rerouted through the slow path (DM)
  kCommit,               // client learns a request committed
  kExecute,              // replica executes a command
  kProbeSend,            // measurement probe sent
  kProbeRecv,            // measurement probe reply received
  kMessageDrop,          // transport dropped a packet (detail = net::DropReason)
  kNodeCrash,            // fault injector crashed a node
  kNodeRecover,          // fault injector recovered a node
  kLinkPartition,        // directed dc link partitioned (node/peer = dc indices)
  kLinkHeal,             // directed dc link healed
  kLinkDegrade,          // degradation epoch began (value = multiplier x1000)
  kLinkRestore,          // degradation epoch ended
  kRouteChange,          // permanent base-delay change (value = new base ns)
  kClientRetry,          // client re-proposed a timed-out request
  kClientAbandon,        // client gave up on a request (retries exhausted)
  kRecoveryStart,        // amnesiac restart began (value = restart epoch)
  kRecoveryDone,         // replica rejoined after catch-up (value = ns spent)
};

[[nodiscard]] const char* event_kind_name(EventKind kind);

// Fields ordered widest first so the event packs into 48 bytes; designated
// initialisers at the record sites follow this order.
struct TraceEvent {
  TimePoint at;                       // virtual (true) time
  std::int64_t value = 0;             // kind-specific (bytes, delay ns, ts)
  RequestId request{NodeId::invalid(), 0};  // subject request, if any
  NodeId node;                        // acting node
  NodeId peer = NodeId::invalid();    // counterpart, if any
  EventKind kind = EventKind::kRequestSubmit;
  std::uint8_t detail = 0;            // kind-specific code (e.g. drop reason)
};
static_assert(sizeof(TraceEvent) == 48);

class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// Reserves `capacity` events; none is constructed until recorded.
  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity);

  /// O(1), allocation-free; once the ring is full the oldest event is
  /// overwritten.
  void record(const TraceEvent& event);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events currently retained.
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Events ever recorded (retained + overwritten).
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  [[nodiscard]] std::uint64_t overwritten() const { return total_ - size(); }
  [[nodiscard]] bool empty() const { return total_ == 0; }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Drops every event; the reservation is kept.
  void clear();

 private:
  std::vector<TraceEvent> ring_;  // grows to capacity_, then wraps
  std::size_t capacity_;
  std::size_t head_ = 0;     // oldest event (and next overwrite) once full
  std::uint64_t total_ = 0;  // events ever recorded
};

}  // namespace domino::obs
