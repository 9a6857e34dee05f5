#include "reference.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {

double reference_seconds() {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();

  struct Event {
    std::uint64_t at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  constexpr std::uint64_t kEvents = 250'000;
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> inflight;
  std::uint64_t now = 0, seq = 0, sum = 0;
  std::uint64_t x = 88172645463325252ull;  // xorshift64: fixed, seed-independent work
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::function<void(std::uint64_t)> spawn = [&](std::uint64_t id) {
    inflight[id] = std::vector<std::uint8_t>(48 + next() % 64, static_cast<std::uint8_t>(id));
    queue.push(Event{now + next() % 100'000, seq++, [&, id] {
                       const auto it = inflight.find(id);
                       for (const std::uint8_t b : it->second) sum += b;
                       inflight.erase(it);
                       if (seq < kEvents) spawn(seq * 7 + 1);
                     }});
  };
  for (std::uint64_t i = 0; i < 1500; ++i) spawn(i * 7 + 3);
  while (!queue.empty()) {
    Event e = queue.top();
    queue.pop();
    now = e.at;
    e.fn();
  }
  const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  // Keep the checksum observable so the loop cannot be optimized away.
  return sum == 0 ? elapsed + 1e-12 : elapsed;
}

}  // namespace perfbench
