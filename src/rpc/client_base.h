// Shared client machinery for every protocol's client library.
//
// A protocol client derives from ClientBase and implements propose().
// ClientBase provides the open-loop load generator (the paper's clients
// send a fixed 200 requests/second, Section 7.1), send-time bookkeeping,
// commit dedup, the commit-latency hook the evaluation harness taps, and —
// when enabled via set_request_timeout() — a generic per-request timeout
// with retries: a request that has not committed within the timeout is
// handed to on_request_timeout() (default: re-propose), up to a bounded
// number of attempts, after which it is abandoned and accounted for. The
// invariant  submitted == committed + abandoned + inflight  always holds,
// which is what the chaos tests' liveness accounting checks.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>

#include "common/rng.h"
#include "rpc/node.h"
#include "statemachine/workload.h"

namespace domino::rpc {

class ClientBase : public Node {
 public:
  /// Invoked exactly once per request when the client learns it committed.
  using CommitHook =
      std::function<void(const RequestId&, TimePoint sent_at, TimePoint committed_at)>;
  /// Invoked when a request is submitted (before the proposal is sent).
  using SendHook = std::function<void(const RequestId&, TimePoint sent_at)>;

  ClientBase(NodeId id, std::size_t dc, net::Network& network, sim::LocalClock clock);
  ClientBase(NodeId id, std::size_t dc, Context& context, sim::LocalClock clock);

  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }
  void set_send_hook(SendHook hook) { send_hook_ = std::move(hook); }

  /// Start submitting `rps` requests per second drawn from `workload`.
  /// The generator must outlive the client.
  void start_load(sm::WorkloadGenerator& workload, double rps);
  void stop_load();

  /// Submit one command now (records its send time, then calls propose()).
  /// `command.id` must carry this client's id and a seq not in flight.
  void submit(sm::Command command);

  /// Enable the per-request timeout: a request that has not committed
  /// `timeout` after its last (re-)proposal is retried via
  /// on_request_timeout(), at most `max_retries` times, then abandoned.
  /// Duration::zero() disables (the default).
  void set_request_timeout(Duration timeout, std::size_t max_retries = 3);
  [[nodiscard]] Duration request_timeout() const { return request_timeout_; }

  /// Deterministic exponential backoff between retries. The wait before
  /// retry k (k = 1 for the first retry) is
  ///   min(timeout * multiplier^(k-1), cap) * (1 + jitter * u)
  /// with u drawn uniformly from [0, 1) by a client-owned generator seeded
  /// with `seed` — same seed, same backoff sequence. multiplier = 1 and
  /// jitter = 0 (the defaults) reproduce the legacy fixed interval. Each
  /// realized wait is recorded in the client.retry_backoff_ns histogram.
  void set_retry_backoff(double multiplier, Duration cap, double jitter,
                         std::uint64_t seed);

  /// The wait armed before retry `attempt` (attempt >= 1); exposed for the
  /// backoff unit test.
  [[nodiscard]] Duration backoff_delay(std::size_t attempt);

  [[nodiscard]] std::uint64_t submitted_count() const { return submitted_; }
  [[nodiscard]] std::uint64_t committed_count() const { return committed_; }
  [[nodiscard]] std::uint64_t inflight_count() const { return requests_.size() - abandoned_; }
  /// Timed-out re-proposals issued so far.
  [[nodiscard]] std::uint64_t retry_count() const { return retries_; }
  /// Requests given up on after exhausting retries (each is accounted for:
  /// submitted == committed + abandoned + inflight).
  [[nodiscard]] std::uint64_t abandoned_count() const { return abandoned_; }

 protected:
  /// Protocol-specific proposal path.
  virtual void propose(const sm::Command& command) = 0;

  /// Called when a request times out with retry budget left. `attempt` is
  /// 1 for the first retry. The default re-proposes the command unchanged;
  /// protocol clients override this to fail over (e.g. Domino re-routes a
  /// timed-out DFP request through DM).
  virtual void on_request_timeout(const sm::Command& command, std::size_t attempt);

  /// Protocol clients call this when they learn a request committed.
  /// Duplicate notifications, and notifications for requests this client
  /// never submitted, are ignored.
  void handle_committed(const RequestId& id);

  /// Called exactly once per request, when its first commit notification
  /// lands and the send time is still known — the client-side point where
  /// realized latency is exact. Protocol clients override it to reconcile
  /// per-request predictions (the Domino client closes its DecisionRecord
  /// here); the default does nothing.
  virtual void on_committed(const RequestId& id, TimePoint sent_at, TimePoint committed_at);

 private:
  /// Everything the client tracks about one request, from submit until its
  /// first commit notification. An abandoned request keeps its entry (with
  /// `abandoned` set) so a late commit can still be accounted for; a request
  /// with no entry is done, was never submitted, or belongs to someone else.
  struct Request {
    TimePoint sent_at;          // true send time
    obs::SpanId root_span = 0;  // live command trace (0 when spans are off)
    std::size_t attempts = 0;   // retries issued so far
    bool abandoned = false;
    std::optional<sm::Command> command;  // kept for retries (timeouts on)
  };

  void arm_timeout(std::uint64_t seq, std::size_t attempt);
  void init_obs();

  CommitHook commit_hook_;
  SendHook send_hook_;
  RepeatingTimer load_timer_;
  obs::CounterHandle obs_submitted_;
  obs::CounterHandle obs_committed_;
  obs::CounterHandle obs_retries_;
  obs::CounterHandle obs_abandoned_;
  obs::HistogramHandle obs_commit_latency_;
  obs::HistogramHandle obs_retry_backoff_;
  std::unordered_map<RequestId, Request> requests_;
  Duration request_timeout_ = Duration::zero();       // zero = disabled
  std::size_t max_retries_ = 0;
  double backoff_multiplier_ = 1.0;                   // 1.0 = fixed interval
  Duration backoff_cap_ = Duration::zero();           // zero = uncapped
  double backoff_jitter_ = 0.0;
  std::optional<Rng> backoff_rng_;                    // seeded on demand
  std::uint64_t submitted_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t abandoned_ = 0;
};

}  // namespace domino::rpc
