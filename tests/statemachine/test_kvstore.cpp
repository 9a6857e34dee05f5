#include "statemachine/kvstore.h"

#include <gtest/gtest.h>

#include "wire/fields.h"

namespace domino::sm {
namespace {

Command cmd(std::uint64_t seq, std::string key, std::string value) {
  Command c;
  c.id = RequestId{NodeId{1}, seq};
  c.key = std::move(key);
  c.value = std::move(value);
  return c;
}

TEST(KvStore, ApplyInsertsAndReturnsPrevious) {
  KvStore s;
  EXPECT_FALSE(s.apply(cmd(0, "a", "1")).has_value());
  EXPECT_EQ(s.apply(cmd(1, "a", "2")), "1");
  EXPECT_EQ(s.get("a"), "2");
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.applied_count(), 2u);
}

TEST(KvStore, GetMissingIsNullopt) {
  KvStore s;
  EXPECT_FALSE(s.get("nope").has_value());
}

TEST(KvStore, DistinctKeys) {
  KvStore s;
  s.apply(cmd(0, "a", "1"));
  s.apply(cmd(1, "b", "2"));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.get("a"), "1");
  EXPECT_EQ(s.get("b"), "2");
}

TEST(KvStore, ItemsExposesContents) {
  KvStore s;
  s.apply(cmd(0, "x", "y"));
  EXPECT_EQ(s.items().at("x"), "y");
}

TEST(Command, ConflictSemantics) {
  EXPECT_TRUE(cmd(0, "k", "1").conflicts_with(cmd(1, "k", "2")));
  EXPECT_FALSE(cmd(0, "k", "1").conflicts_with(cmd(1, "j", "1")));
}

TEST(Command, WireRoundTrip) {
  const Command c = cmd(7, "key00001", "val00002");
  EXPECT_EQ(wire::decode<Command>(wire::encode(c)), c);
}

}  // namespace
}  // namespace domino::sm
