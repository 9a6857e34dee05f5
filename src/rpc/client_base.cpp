#include "rpc/client_base.h"

namespace domino::rpc {

ClientBase::ClientBase(NodeId id, std::size_t dc, net::Network& network, sim::LocalClock clock)
    : Node(id, dc, network, clock) {
  init_obs();
}

ClientBase::ClientBase(NodeId id, std::size_t dc, Context& context, sim::LocalClock clock)
    : Node(id, dc, context, clock) {
  init_obs();
}

void ClientBase::init_obs() {
  obs_submitted_ = obs_sink().counter("client.submitted");
  obs_committed_ = obs_sink().counter("client.committed");
  obs_retries_ = obs_sink().counter("client.retries");
  obs_abandoned_ = obs_sink().counter("client.abandoned");
  obs_commit_latency_ = obs_sink().histogram("client.commit_latency_ns");
}

void ClientBase::start_load(sm::WorkloadGenerator& workload, double rps) {
  if (rps <= 0.0) return;
  const Duration interval{static_cast<std::int64_t>(1e9 / rps)};
  load_timer_.start(context(), interval, interval,
                    [this, &workload] { submit(workload.next(id())); });
}

void ClientBase::stop_load() { load_timer_.stop(); }

void ClientBase::set_request_timeout(Duration timeout, std::size_t max_retries) {
  request_timeout_ = timeout;
  max_retries_ = max_retries;
}

void ClientBase::set_retry_backoff(double multiplier, Duration cap, double jitter,
                                   std::uint64_t seed) {
  backoff_multiplier_ = multiplier;
  backoff_cap_ = cap;
  backoff_jitter_ = jitter;
  backoff_rng_.emplace(seed);
  // Created here rather than in init_obs so clients that never enable
  // backoff register no extra metric.
  obs_retry_backoff_ = obs_sink().histogram("client.retry_backoff_ns");
}

Duration ClientBase::backoff_delay(std::size_t attempt) {
  if (!backoff_rng_.has_value()) return request_timeout_;
  const double cap_ns = static_cast<double>(backoff_cap_.nanos());
  double ns = static_cast<double>(request_timeout_.nanos());
  for (std::size_t k = 1; k < attempt; ++k) {
    ns *= backoff_multiplier_;
    if (backoff_cap_ > Duration::zero() && ns >= cap_ns) break;
  }
  if (backoff_cap_ > Duration::zero() && ns > cap_ns) ns = cap_ns;
  if (backoff_jitter_ > 0.0) ns *= 1.0 + backoff_jitter_ * backoff_rng_->next_double();
  return Duration{static_cast<std::int64_t>(ns)};
}

void ClientBase::submit(sm::Command command) {
  ++submitted_;
  Request& request = requests_[command.id];
  request.sent_at = true_now();
  obs_submitted_.inc();
  if (obs_sink().tracing()) {
    obs_sink().record(obs::TraceEvent{.at = true_now(),
                                      .kind = obs::EventKind::kRequestSubmit,
                                      .node = id(),
                                      .request = command.id});
  }
  if (send_hook_) send_hook_(command.id, true_now());
  // Open the command's root span and propose inside its context, so every
  // message the proposal causes carries the trace downstream.
  const obs::TraceContext prev_span = active_span();
  if (span_store() != nullptr) {
    const obs::TraceId trace = obs::trace_id_of(command.id);
    request.root_span = span_store()->open_root(trace, id(), "command", true_now());
    if (request.root_span != 0) set_active_span(obs::TraceContext{trace, request.root_span});
  }
  const bool timed = request_timeout_ > Duration::zero();
  if (timed) request.command = command;
  const std::uint64_t seq = command.id.seq;
  // propose() may commit synchronously and erase the entry: `request` is
  // not used past this point.
  propose(command);
  set_active_span(prev_span);
  if (timed) arm_timeout(seq, 0);
}

void ClientBase::arm_timeout(std::uint64_t seq, std::size_t attempt) {
  // The wait before retry (attempt + 1); the plain timeout when backoff is
  // not configured.
  const Duration wait = backoff_rng_.has_value() ? backoff_delay(attempt + 1)
                                                 : request_timeout_;
  if (backoff_rng_.has_value()) obs_retry_backoff_.record(wait);
  // Each request has at most one live timer (the next is armed when this
  // one fires), so the entry's attempt count identifies it. Capturing only
  // the seq keeps the callable small enough for std::function to hold
  // inline.
  after(wait, [this, seq] {
    const RequestId rid{id(), seq};
    auto it = requests_.find(rid);
    if (it == requests_.end()) return;  // committed meanwhile
    Request& request = it->second;
    const std::size_t attempt = request.attempts;
    if (attempt >= max_retries_) {
      // Out of retry budget: give up, but keep the entry so a late commit
      // still balances submitted == committed + abandoned + inflight.
      request.abandoned = true;
      request.command.reset();
      ++abandoned_;
      obs_abandoned_.inc();
      if (request.root_span != 0) span_store()->close(request.root_span, true_now());
      if (obs_sink().tracing()) {
        obs_sink().record(obs::TraceEvent{.at = true_now(),
                                          .kind = obs::EventKind::kClientAbandon,
                                          .node = id(),
                                          .request = rid,
                                          .value = static_cast<std::int64_t>(attempt)});
      }
      return;
    }
    const std::size_t next_attempt = attempt + 1;
    request.attempts = next_attempt;
    ++retries_;
    obs_retries_.inc();
    if (obs_sink().tracing()) {
      obs_sink().record(obs::TraceEvent{.at = true_now(),
                                        .kind = obs::EventKind::kClientRetry,
                                        .node = id(),
                                        .request = rid,
                                        .value = static_cast<std::int64_t>(next_attempt)});
    }
    // Copy what the retry needs: on_request_timeout may commit the request
    // and erase its entry.
    const sm::Command command = *request.command;
    const obs::SpanId root = request.root_span;
    // Re-activate the command's root span so the retry's messages stay on
    // the original trace (the retry is causally part of the same command).
    if (root != 0) set_active_span(obs::TraceContext{obs::trace_id_of(rid), root});
    on_request_timeout(command, next_attempt);
    if (root != 0) clear_active_span();
    arm_timeout(seq, next_attempt);
  });
}

void ClientBase::on_request_timeout(const sm::Command& command, std::size_t /*attempt*/) {
  propose(command);
}

void ClientBase::on_committed(const RequestId& /*id*/, TimePoint /*sent_at*/,
                              TimePoint /*committed_at*/) {}

void ClientBase::handle_committed(const RequestId& id) {
  if (id.client != this->id()) return;
  const auto it = requests_.find(id);
  if (it == requests_.end()) return;  // duplicate, or never submitted here
  const TimePoint sent = it->second.sent_at;
  const obs::SpanId root = it->second.root_span;
  const bool abandoned = it->second.abandoned;
  requests_.erase(it);
  ++committed_;
  obs_committed_.inc();
  if (abandoned) {
    // A retry we had given up on came through after all; un-count the
    // abandonment so the accounting invariant keeps holding. (The obs
    // counter stays monotonic: it counts abandon *events*, not the net.)
    --abandoned_;
    return;
  }
  if (root != 0) {
    // Terminal event of the trace: close the root span at commit time and
    // record which span delivered the commit (the handler span of the
    // message being processed right now; 0 on an untraced path).
    span_store()->close(root, true_now());
    span_store()->note_commit(obs::trace_id_of(id), id, true_now(), active_span().span_id);
  }
  obs_commit_latency_.record(true_now() - sent);
  on_committed(id, sent, true_now());
  if (obs_sink().tracing()) {
    obs_sink().record(obs::TraceEvent{.at = true_now(),
                                      .kind = obs::EventKind::kCommit,
                                      .node = this->id(),
                                      .request = id,
                                      .value = (true_now() - sent).nanos()});
  }
  if (commit_hook_) commit_hook_(id, sent, true_now());
}

}  // namespace domino::rpc
