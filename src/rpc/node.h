// Process base class: the glue between a protocol implementation and its
// transport.
//
// A Node owns an id, a datacenter placement, a (possibly skewed) local
// clock, and a receive dispatch point, all over an abstract rpc::Context —
// the deterministic simulator for evaluation or real TCP sockets for
// deployment. Derived classes implement on_packet(), peeking the envelope
// tag and decoding the message. Sending always serializes through the wire
// codec.
#pragma once

#include <array>
#include <memory>
#include <utility>

#include "common/ids.h"
#include "net/network.h"
#include "obs/sink.h"
#include "rpc/context.h"
#include "sim/clock.h"
#include "wire/message.h"

namespace domino::rpc {

class Node {
 public:
  /// Run over an explicit transport context.
  Node(NodeId id, std::size_t dc, Context& context, sim::LocalClock clock = sim::LocalClock{});

  /// Convenience: run over the WAN simulator (owns a SimContext adapter).
  Node(NodeId id, std::size_t dc, net::Network& network,
       sim::LocalClock clock = sim::LocalClock{});

  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Register this node's receiver with the transport. Must be called
  /// exactly once, after construction (not from the constructor, so that
  /// derived classes are fully built before packets can arrive).
  void attach();

  /// Start the node's periodic activity (heartbeats, probing). Call once,
  /// after attach(). The default does nothing, for nodes without timers.
  virtual void start() {}

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] std::size_t dc() const { return dc_; }

  /// True (monotonic) transport time.
  [[nodiscard]] TimePoint true_now() const { return context_.now(); }

  /// This node's local wall-clock reading (includes skew/drift).
  [[nodiscard]] TimePoint local_now() const { return clock_.local(true_now()); }

  [[nodiscard]] const sim::LocalClock& clock() const { return clock_; }

  /// Serialize and send a protocol message. When a span store is installed
  /// and a span is active (we are handling a traced packet, or a client is
  /// proposing a command), the active trace context is piggybacked on the
  /// envelope so the receiver can link its handling back to this span.
  template <typename M>
  void send(NodeId dst, const M& msg) {
    wire::Payload payload =
        (obs_.spans != nullptr && active_span_.valid())
            ? wire::encode_message_traced(
                  msg, wire::TraceContextWire{active_span_.trace_id, active_span_.span_id})
            : wire::encode_message(msg);
    if (obs_.metrics != nullptr) instrument_send(M::kType, payload.size());
    context_.send(id_, dst, std::move(payload));
  }

  /// The observability sink this node (and components embedded in it, e.g.
  /// a measure::Prober) reports into. Captured from the transport at
  /// construction; disabled unless the transport was bound first.
  [[nodiscard]] const obs::Sink& obs_sink() const { return obs_; }

  /// Schedule `fn` to run after `delay` (true-time delay).
  void after(Duration delay, std::function<void()> fn) {
    context_.schedule(delay, std::move(fn));
  }

  [[nodiscard]] Context& context() { return context_; }
  [[nodiscard]] const Context& context() const { return context_; }

 protected:
  /// Called (on the transport's thread / in virtual time) for every
  /// delivered packet.
  virtual void on_packet(const net::Packet& packet) = 0;

  /// The span context outgoing messages are stamped with. Set automatically
  /// while handling a traced packet; ClientBase sets it around proposals.
  [[nodiscard]] const obs::TraceContext& active_span() const { return active_span_; }
  void set_active_span(const obs::TraceContext& ctx) { active_span_ = ctx; }
  void clear_active_span() { active_span_ = {}; }

  /// The span store this node records into (null = spans disabled).
  [[nodiscard]] obs::SpanStore* span_store() const { return obs_.spans; }

  /// Open a named child span of the active span (a wait that spans virtual
  /// time, e.g. a quorum gather). Returns 0 when spans are disabled or no
  /// span is active; close_wait_span(0) is a no-op, so call sites need no
  /// guards.
  [[nodiscard]] obs::SpanId open_wait_span(const char* name) {
    if (obs_.spans == nullptr || !active_span_.valid()) return 0;
    return obs_.spans->open(active_span_.trace_id, active_span_.span_id, id_, name,
                            context_.now());
  }
  void close_wait_span(obs::SpanId span) {
    if (span != 0 && obs_.spans != nullptr) obs_.spans->close(span, context_.now());
  }

 private:
  void instrument_send(wire::MessageType type, std::size_t bytes);
  void instrument_recv(const net::Packet& packet);
  /// Span bookkeeping around on_packet for a traced packet: records the
  /// send/recv edge, opens the handler span, and activates its context.
  void dispatch_traced(const net::Packet& packet, const wire::TraceContextWire& ctx);

  std::unique_ptr<Context> owned_context_;  // set by the Network convenience ctor
  Context& context_;
  NodeId id_;
  std::size_t dc_;
  sim::LocalClock clock_;
  bool attached_ = false;

  obs::TraceContext active_span_;

  // Per-message-type handles, created lazily off the hot path; index = wire
  // tag. init bits distinguish "not yet created" from "disabled".
  obs::Sink obs_;
  obs::CounterHandle obs_sent_;
  obs::CounterHandle obs_received_;
  std::array<obs::HistogramHandle, wire::kMaxMessageTypeTag> obs_sent_bytes_{};
  std::array<obs::CounterHandle, wire::kMaxMessageTypeTag> obs_recv_type_{};
  std::array<bool, wire::kMaxMessageTypeTag> obs_sent_init_{};
  std::array<bool, wire::kMaxMessageTypeTag> obs_recv_init_{};
};

}  // namespace domino::rpc
