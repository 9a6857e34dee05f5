// Differential test of the event queue: sim::Simulator (key heap + action
// slab) against a reference std::priority_queue of whole events ordered by
// (at, seq). Seeded schedules stress what the slab and free list could get
// wrong: heavy timestamp ties, events scheduled from inside actions (which
// reuse the slot just freed), past-time clamps, and run_until boundaries
// that stop exactly on, between and before event times.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.h"

namespace domino::sim {
namespace {

/// Reference engine: each heap entry owns its action.
class ReferenceSimulator {
 public:
  [[nodiscard]] TimePoint now() const { return now_; }

  void schedule_at(TimePoint at, std::function<void()> action) {
    if (at < now_) at = now_;
    queue_.push(Event{at, next_seq_++, std::move(action)});
  }

  void schedule_after(Duration delay, std::function<void()> action) {
    if (delay < Duration::zero()) delay = Duration::zero();
    schedule_at(now_ + delay, std::move(action));
  }

  bool step() {
    if (queue_.empty()) return false;
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.at;
    ev.action();
    return true;
  }

  std::uint64_t run_until(TimePoint deadline) {
    std::uint64_t n = 0;
    while (!queue_.empty() && queue_.top().at <= deadline) {
      step();
      ++n;
    }
    if (now_ < deadline) now_ = deadline;
    return n;
  }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

 private:
  struct Event {
    TimePoint at;
    std::uint64_t seq;
    std::function<void()> action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  TimePoint now_ = TimePoint::epoch();
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

/// What one run observed: the executed event ids with their firing times,
/// plus pending_events() and now() after every run_until.
struct Observation {
  std::vector<std::pair<std::uint64_t, std::int64_t>> executed;
  std::vector<std::pair<std::size_t, std::int64_t>> checkpoints;
  std::uint64_t returned = 0;  // sum of run_until return values
};

/// Drive `sim` through the schedule derived from `seed`. Every decision is
/// drawn from an Rng in a fixed order, so both engines see identical calls
/// as long as they execute events in the same order (and a divergence shows
/// up as different observations).
template <typename Sim>
Observation drive(Sim& sim, std::uint64_t seed) {
  Observation obs;
  Rng rng(seed);
  std::uint64_t next_id = 0;
  // Few distinct offsets: most events tie with several others.
  auto offset = [&rng] { return milliseconds(rng.uniform_i64(0, 4)); };

  std::function<void(std::uint64_t)> body;
  auto schedule_one = [&](bool from_action) {
    const std::uint64_t id = next_id++;
    const std::int64_t kind = rng.uniform_i64(0, 9);
    auto action = [&body, id] { body(id); };
    if (kind == 0) {
      // A past-time request: clamps to now and runs before time advances.
      sim.schedule_at(sim.now() - milliseconds(rng.uniform_i64(1, 3)), action);
    } else if (kind == 1) {
      sim.schedule_after(-microseconds(rng.uniform_i64(1, 500)), action);
    } else if (kind <= 5 || !from_action) {
      sim.schedule_at(sim.now() + offset(), action);
    } else {
      sim.schedule_after(offset(), action);
    }
  };
  body = [&](std::uint64_t id) {
    obs.executed.emplace_back(id, sim.now().nanos());
    // Children from inside an action; bounded so the schedule drains.
    if (next_id < 4000) {
      const std::int64_t children = rng.uniform_i64(0, 2);
      for (std::int64_t c = 0; c < children; ++c) schedule_one(true);
    }
  };

  for (int i = 0; i < 200; ++i) schedule_one(false);
  TimePoint deadline = sim.now();
  while (sim.pending_events() > 0) {
    // Deadlines land on, between and behind event times (0 = same instant).
    deadline = deadline + microseconds(rng.uniform_i64(0, 2) * 500);
    obs.returned += sim.run_until(deadline);
    obs.checkpoints.emplace_back(sim.pending_events(), sim.now().nanos());
    if (next_id < 4000 && rng.uniform_i64(0, 3) == 0) schedule_one(false);  // between runs
  }
  return obs;
}

class SimulatorDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorDifferential, MatchesReferenceQueue) {
  Simulator sim;
  ReferenceSimulator ref;
  const Observation got = drive(sim, GetParam());
  const Observation want = drive(ref, GetParam());
  ASSERT_GT(want.executed.size(), 1000u);
  EXPECT_EQ(got.executed, want.executed);
  EXPECT_EQ(got.checkpoints, want.checkpoints);
  EXPECT_EQ(got.returned, want.returned);
  EXPECT_EQ(sim.executed_events(), want.executed.size());
  EXPECT_EQ(sim.pending_events(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorDifferential,
                         ::testing::Values(1u, 2u, 3u, 17u, 4242u));

TEST(SimulatorSlab, ActionDestroyedAfterItRuns) {
  // The slab must not keep an executed action's captures alive.
  Simulator sim;
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  sim.schedule_after(milliseconds(1), [token = std::move(token)] { ++*token; });
  sim.schedule_after(milliseconds(2), [&] { EXPECT_TRUE(watch.expired()); });
  sim.run();
  EXPECT_TRUE(watch.expired());
}

TEST(SimulatorSlab, ReusedSlotRunsTheNewAction) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(milliseconds(1), [&] {
    order.push_back(1);
    // Scheduled while slot 0 is free again: must run this action, once.
    sim.schedule_after(milliseconds(1), [&] { order.push_back(3); });
  });
  sim.schedule_after(milliseconds(1), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace domino::sim
