#include "sim/simulator.h"

#include <utility>

namespace domino::sim {

void Simulator::bind_obs(const obs::Sink& sink) {
  obs_executed_ = sink.counter("sim.events_executed");
  obs_scheduled_ = sink.counter("sim.events_scheduled");
  obs_queue_depth_ = sink.gauge("sim.queue_depth");
}

void Simulator::schedule_at(TimePoint at, Action action) {
  if (at < now_) at = now_;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(actions_.size());
    actions_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    actions_[slot] = std::move(action);
  }
  queue_.push(Key{at, next_seq_++, slot});
  obs_scheduled_.inc();
  obs_queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
}

void Simulator::schedule_after(Duration delay, Action action) {
  if (delay < Duration::zero()) delay = Duration::zero();
  schedule_at(now_ + delay, std::move(action));
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  const Key key = queue_.top();
  queue_.pop();
  // Move the action out before running it: it may schedule events, which
  // can grow the slab or reuse this slot.
  Action action = std::move(actions_[key.slot]);
  free_slots_.push_back(key.slot);
  now_ = key.at;
  ++executed_;
  obs_executed_.inc();
  obs_queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
  action();
  return true;
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.top().at <= deadline) {
    step();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

}  // namespace domino::sim
