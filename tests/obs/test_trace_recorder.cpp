#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <unistd.h>

#include "obs/export.h"

namespace domino::obs {
namespace {

TraceEvent event_at(std::int64_t ns, EventKind kind = EventKind::kRequestSubmit) {
  TraceEvent e;
  e.at = TimePoint::epoch() + Duration{ns};
  e.kind = kind;
  e.node = NodeId{1};
  e.value = ns;
  return e;
}

TEST(TraceRecorder, RecordsInOrder) {
  TraceRecorder t(8);
  EXPECT_TRUE(t.empty());
  for (std::int64_t i = 0; i < 5; ++i) t.record(event_at(i));
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.total_recorded(), 5u);
  EXPECT_EQ(t.overwritten(), 0u);
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].value, static_cast<std::int64_t>(i));
  }
}

TEST(TraceRecorder, RingWrapsKeepingNewest) {
  TraceRecorder t(4);
  for (std::int64_t i = 0; i < 10; ++i) t.record(event_at(i));
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.total_recorded(), 10u);
  EXPECT_EQ(t.overwritten(), 6u);
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: events 6, 7, 8, 9.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].value, static_cast<std::int64_t>(6 + i));
  }
}

// Record events 0..n-1 into a ring of `capacity` and check the snapshot
// holds the newest min(n, capacity) of them, oldest first.
void expect_newest_in_order(std::size_t capacity, std::size_t n) {
  TraceRecorder t(capacity);
  for (std::size_t i = 0; i < n; ++i) t.record(event_at(static_cast<std::int64_t>(i)));
  const std::size_t kept = std::min(n, capacity);
  EXPECT_EQ(t.capacity(), capacity);
  EXPECT_EQ(t.size(), kept);
  EXPECT_EQ(t.total_recorded(), n);
  EXPECT_EQ(t.overwritten(), n - kept);
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), kept);
  for (std::size_t i = 0; i < kept; ++i) {
    EXPECT_EQ(events[i].value, static_cast<std::int64_t>(n - kept + i)) << "n=" << n;
  }
}

TEST(TraceRecorder, FillsThenWrapsAtTheBoundary) {
  for (const std::size_t capacity : {1u, 2u, 5u, 8u}) {
    for (const std::size_t n : {capacity - 1, capacity, capacity + 1, 2 * capacity + 1}) {
      expect_newest_in_order(capacity, n);
    }
  }
}

TEST(TraceRecorder, Clear) {
  TraceRecorder t(4);
  t.record(event_at(1));
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(TraceRecorder, RecordAfterClearKeepsOnlyNewEvents) {
  TraceRecorder t(4);
  for (std::int64_t i = 0; i < 6; ++i) t.record(event_at(i));  // wrapped
  t.clear();
  EXPECT_EQ(t.overwritten(), 0u);
  for (std::int64_t i = 100; i < 103; ++i) t.record(event_at(i));
  EXPECT_EQ(t.capacity(), 4u);
  EXPECT_EQ(t.total_recorded(), 3u);
  auto events = t.snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(events[i].value, static_cast<std::int64_t>(100 + i));
  }
  // Wrapping again after the clear starts from the new oldest event.
  for (std::int64_t i = 103; i < 106; ++i) t.record(event_at(i));
  events = t.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].value, static_cast<std::int64_t>(102 + i));
  }
}

// Resident set size in bytes, from /proc/self/statm (second field, pages).
std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int read = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return read == 2 ? resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE)) : 0;
}

TEST(TraceRecorder, UnusedCapacityStaysOutOfResidentMemory) {
  constexpr std::size_t kCapacity = std::size_t{1} << 22;
  constexpr std::size_t kRingBytes = kCapacity * sizeof(TraceEvent);
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u) << "cannot read /proc/self/statm";
  TraceRecorder t(kCapacity);
  for (std::int64_t i = 0; i < 1000; ++i) t.record(event_at(i));
  const std::size_t after = resident_bytes();
  EXPECT_EQ(t.capacity(), kCapacity);
  EXPECT_EQ(t.size(), 1000u);
  EXPECT_LT(after - std::min(after, before), kRingBytes / 4)
      << "resident " << before << " -> " << after << " bytes for a " << kRingBytes
      << "-byte ring";
}

TEST(TraceRecorder, EveryKindHasAName) {
  std::set<std::string> names;
  const auto last = static_cast<unsigned>(EventKind::kRecoveryDone);
  for (unsigned k = 0; k <= last; ++k) {
    const char* name = event_kind_name(static_cast<EventKind>(k));
    EXPECT_STRNE(name, "?") << "kind " << k;
    EXPECT_STRNE(name, "") << "kind " << k;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(names.size(), last + 1);
}

TEST(TraceRecorder, TextExportIsDeterministic) {
  TraceRecorder a(16);
  TraceRecorder b(16);
  for (std::int64_t i = 0; i < 20; ++i) {  // wraps both rings identically
    a.record(event_at(i * 3, EventKind::kCommit));
    b.record(event_at(i * 3, EventKind::kCommit));
  }
  EXPECT_EQ(trace_to_text(a), trace_to_text(b));
  EXPECT_EQ(trace_to_json(a), trace_to_json(b));
  EXPECT_FALSE(trace_to_text(a).empty());
}

}  // namespace
}  // namespace domino::obs
