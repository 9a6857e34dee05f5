#include "obs/trace.h"

#include <algorithm>

namespace domino::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kRequestSubmit: return "request_submit";
    case EventKind::kFastAccept: return "fast_accept";
    case EventKind::kCoordinatorFallback: return "coordinator_fallback";
    case EventKind::kCommit: return "commit";
    case EventKind::kExecute: return "execute";
    case EventKind::kProbeSend: return "probe_send";
    case EventKind::kProbeRecv: return "probe_recv";
    case EventKind::kMessageDrop: return "msg_drop";
    case EventKind::kNodeCrash: return "node_crash";
    case EventKind::kNodeRecover: return "node_recover";
    case EventKind::kLinkPartition: return "link_partition";
    case EventKind::kLinkHeal: return "link_heal";
    case EventKind::kLinkDegrade: return "link_degrade";
    case EventKind::kLinkRestore: return "link_restore";
    case EventKind::kRouteChange: return "route_change";
    case EventKind::kClientRetry: return "client_retry";
    case EventKind::kClientAbandon: return "client_abandon";
    case EventKind::kRecoveryStart: return "recovery_start";
    case EventKind::kRecoveryDone: return "recovery_done";
  }
  return "?";
}

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

void TraceRecorder::record(const TraceEvent& event) {
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[head_] = event;
    if (++head_ == capacity_) head_ = 0;
  }
  ++total_;
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  // Oldest first: head_ is 0 until the ring wraps.
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_), ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  return out;
}

void TraceRecorder::clear() {
  ring_.clear();
  head_ = 0;
  total_ = 0;
}

}  // namespace domino::obs
