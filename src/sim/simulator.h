// Deterministic discrete-event simulation engine.
//
// All protocol activity (message delivery, timers, client load generation)
// is expressed as events on one global virtual-time queue. Events scheduled
// for the same instant fire in scheduling order (a monotonic tie-break
// counter), so a run is exactly reproducible from its RNG seed.
//
// The queue is a binary heap of 24-byte keys {at, seq, slot}; the actions
// themselves sit in a slab with a free list, so pushing, sifting and
// popping move only trivially-copyable keys and a steady-state run reuses
// action slots instead of allocating.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/time.h"
#include "obs/sink.h"

namespace domino::sim {

class Simulator {
 public:
  using Action = std::function<void()>;

  /// Attach an observability sink: counts executed/scheduled events and
  /// tracks the event-queue depth. Call before scheduling load; an unbound
  /// simulator pays one branch per event.
  void bind_obs(const obs::Sink& sink);

  /// Current virtual ("true") time. Nodes see skewed views of this via
  /// LocalClock.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `action` to run at absolute virtual time `at`. Events in the
  /// past are clamped to `now()` (they run next, before time advances).
  void schedule_at(TimePoint at, Action action);

  /// Schedule `action` to run `delay` from now. Negative delays clamp to 0.
  void schedule_after(Duration delay, Action action);

  /// Run until the event queue is empty or `deadline` is reached (events at
  /// exactly `deadline` still run). Returns the number of events executed.
  std::uint64_t run_until(TimePoint deadline);

  /// Run until the queue drains completely.
  std::uint64_t run();

  /// Execute a single event if one exists; returns false when queue empty.
  bool step();

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  /// Heap entry: firing time, tie-break sequence, and the slab slot of the
  /// action.
  struct Key {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24, "heap keys stay three words");
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  TimePoint now_ = TimePoint::epoch();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Key, std::vector<Key>, Later> queue_;
  std::vector<Action> actions_;             // slab, indexed by Key::slot
  std::vector<std::uint32_t> free_slots_;  // empty slab entries

  obs::CounterHandle obs_executed_;
  obs::CounterHandle obs_scheduled_;
  obs::GaugeHandle obs_queue_depth_;
};

}  // namespace domino::sim
