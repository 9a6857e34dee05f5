// Transport abstraction for protocol nodes.
//
// A Context supplies everything a protocol implementation needs from its
// environment: message delivery, timers, and a monotonic "true time". Two
// implementations exist:
//   - rpc::SimContext over the deterministic WAN simulator (evaluation),
//   - net::tcp::TcpContext over real sockets and real clocks (deployment).
// Protocol code is identical over both.
#pragma once

#include <functional>
#include <memory>

#include "common/ids.h"
#include "common/time.h"
#include "net/packet.h"
#include "obs/sink.h"

namespace domino::rpc {

class Context {
 public:
  using Receiver = std::function<void(const net::Packet&)>;

  virtual ~Context() = default;

  /// Deliver `payload` from `src` to `dst` (asynchronously).
  virtual void send(NodeId src, NodeId dst, wire::Payload payload) = 0;

  /// Run `fn` after `delay` of true time.
  virtual void schedule(Duration delay, std::function<void()> fn) = 0;

  /// Monotonic true time (virtual time in simulation, steady clock on real
  /// transports). Nodes derive their local wall clocks from this.
  [[nodiscard]] virtual TimePoint now() const = 0;

  /// Bind `receiver` as the packet handler for node `id`. `dc` is the
  /// datacenter placement; transports without a placement concept ignore it.
  /// The packet handed to `receiver` is valid only during the call.
  virtual void register_node(NodeId id, std::size_t dc, Receiver receiver) = 0;

  /// The observability sink nodes on this transport should report into.
  /// Default: disabled (real-socket transports run uninstrumented for now).
  [[nodiscard]] virtual obs::Sink obs() const { return {}; }
};

/// A periodic timer driven by any Context. Cancellation is cooperative: a
/// shared flag breaks the reschedule chain.
class RepeatingTimer {
 public:
  RepeatingTimer() = default;
  ~RepeatingTimer() { stop(); }

  /// Start firing `tick` every `interval`, first after `initial`. Any
  /// previous schedule is cancelled.
  void start(Context& context, Duration initial, Duration interval,
             std::function<void()> tick) {
    stop();
    alive_ = std::make_shared<bool>(true);
    // The timer object owns the reschedule closure; the closure holds only
    // a weak reference to itself. A self-owning shared_ptr cycle here would
    // keep every timer closure alive forever (it shows up as a leak under
    // LeakSanitizer once a run finishes with timers still armed).
    fire_ = std::make_shared<std::function<void()>>();
    auto alive = alive_;
    std::weak_ptr<std::function<void()>> weak_fire = fire_;
    *fire_ = [&context, interval, tick = std::move(tick), alive, weak_fire]() {
      if (!*alive) return;
      tick();
      if (!*alive) return;
      if (auto fire = weak_fire.lock()) context.schedule(interval, *fire);
    };
    context.schedule(initial, *fire_);
  }

  void stop() {
    if (alive_) *alive_ = false;
    alive_.reset();
    fire_.reset();
  }

  [[nodiscard]] bool running() const { return alive_ && *alive_; }

 private:
  std::shared_ptr<bool> alive_;
  std::shared_ptr<std::function<void()>> fire_;
};

}  // namespace domino::rpc
