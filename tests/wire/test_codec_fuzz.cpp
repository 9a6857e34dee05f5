// Decode-side robustness of every message type, driven by the one sample
// list in wire/samples.h: each type round-trips exactly, rejects every
// truncation and any trailing byte, and random or bit-flipped inputs either
// decode or throw WireError — never crash, hang, allocate unboundedly or
// read out of bounds (the sanitizer-visible contract of the defensive
// codec; the suite runs under ASan+UBSan with the hotpath label).
#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <type_traits>

#include "common/rng.h"
#include "wire/message.h"
#include "wire/samples.h"

namespace domino::wire {
namespace {

template <typename M>
void expect_decodes_or_wire_error(const Payload& payload) {
  try {
    (void)decode_message<M>(payload);
  } catch (const WireError&) {
    // the expected failure mode; any other exception fails the test
  }
}

TEST(CodecFuzz, EveryNamedTagIsSampled) {
  std::set<MessageType> sampled;
  test::for_each_sample([&](const auto& msg) {
    EXPECT_TRUE(sampled.insert(msg.kType).second)
        << message_type_name(msg.kType) << " sampled twice";
  });
  for (std::size_t tag = 0; tag < kMaxMessageTypeTag; ++tag) {
    const auto type = static_cast<MessageType>(tag);
    if (std::string_view(message_type_name(type)) == "Unknown") continue;
    EXPECT_TRUE(sampled.count(type) == 1)
        << message_type_name(type) << " has no entry in wire/samples.h";
  }
}

TEST(CodecFuzz, EveryTypeRoundTrips) {
  test::for_each_sample([](const auto& msg) {
    using M = std::remove_cvref_t<decltype(msg)>;
    const Payload bytes = encode_message(msg);
    const M decoded = decode_message<M>(bytes);
    EXPECT_TRUE(decoded == msg) << message_type_name(M::kType);
    EXPECT_EQ(encode_message(decoded), bytes) << message_type_name(M::kType);
  });
}

TEST(CodecFuzz, TruncatedRealMessagesThrowCleanly) {
  test::for_each_sample([](const auto& msg) {
    using M = std::remove_cvref_t<decltype(msg)>;
    const Payload bytes = encode_message(msg);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const Payload prefix(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_THROW((void)decode_message<M>(prefix), WireError)
          << message_type_name(M::kType) << " cut at " << cut;
    }
  });
}

TEST(CodecFuzz, AppendedByteThrows) {
  test::for_each_sample([](const auto& msg) {
    using M = std::remove_cvref_t<decltype(msg)>;
    Payload bytes = encode_message(msg);
    bytes.push_back(0x00);
    EXPECT_THROW((void)decode_message<M>(bytes), WireError) << message_type_name(M::kType);
  });
}

TEST(CodecFuzz, RandomBytesNeverCrash) {
  // Random bodies behind each type's own tag, so decoding gets past the
  // envelope and into the field list.
  Rng rng(101);
  test::for_each_sample([&](const auto& msg) {
    using M = std::remove_cvref_t<decltype(msg)>;
    for (int iter = 0; iter < 200; ++iter) {
      Payload p(2 + rng.next_u64() % 64);
      for (auto& b : p) b = static_cast<std::uint8_t>(rng.next_u64());
      p[0] = static_cast<std::uint8_t>(static_cast<std::uint16_t>(M::kType));
      p[1] = 0;
      expect_decodes_or_wire_error<M>(p);
    }
  });
}

TEST(CodecFuzz, BitFlippedMessagesNeverCrash) {
  Rng rng(202);
  test::for_each_sample([&](const auto& msg) {
    using M = std::remove_cvref_t<decltype(msg)>;
    const Payload seed = encode_message(msg);
    for (int iter = 0; iter < 200; ++iter) {
      Payload p = seed;
      const std::size_t flips = 1 + rng.next_u64() % 4;
      for (std::size_t f = 0; f < flips; ++f) {
        p[rng.next_u64() % p.size()] ^= static_cast<std::uint8_t>(1u << (rng.next_u64() % 8));
      }
      expect_decodes_or_wire_error<M>(p);
    }
  });
}

TEST(CodecFuzz, LengthBombsRejected) {
  // A huge claimed string/vector length with no bytes behind it must throw,
  // not allocate unboundedly or read out of bounds.
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(MessageType::kDfpPropose));
  w.svarint(1);
  w.node_id(NodeId{1});
  w.varint(2);
  w.varint(0xFFFFFFFFFFull);  // key length claims ~1 TiB
  const Payload p = w.buffer();
  EXPECT_THROW((void)decode_message<core::DfpPropose>(p), WireError);
}

TEST(CodecFuzz, VectorGuardsUseDerivedElementSizes) {
  // The minimum encoded size of each vector element type, derived from its
  // field list.
  EXPECT_EQ(min_encoded_size<epaxos::InstanceId>(), 5u);
  EXPECT_EQ(min_encoded_size<core::RangeEntryWire>(), 8u);
  EXPECT_EQ(min_encoded_size<recovery::KvEntry>(), 2u);
  EXPECT_EQ(min_encoded_size<recovery::CatchupEntry>(), 10u);
  EXPECT_EQ(min_encoded_size<measure::ProxyReport::Entry>(), 9u);

  // Three claimed range entries cannot fit in 16 remaining bytes: the count
  // is rejected before the vector is sized, not by a later truncation.
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(MessageType::kDfpRangeReply));
  w.svarint(1);  // from_ts
  w.svarint(2);  // to_ts
  w.varint(3);   // entries
  for (int i = 0; i < 16; ++i) w.u8(0);
  try {
    (void)decode_message<core::DfpRangeReply>(w.buffer());
    ADD_FAILURE() << "an over-long entry count decoded";
  } catch (const WireError& e) {
    EXPECT_NE(std::string_view(e.what()).find("length prefix"), std::string_view::npos)
        << e.what();
  }
}

// A uint32 field (a log lane) whose varint exceeds 2^32-1 must be rejected:
// truncated, 2^32+1 would read as lane 1 and pass every lane-range check.
constexpr std::uint64_t kLaneOverflow = (std::uint64_t{1} << 32) + 1;

void put_command(ByteWriter& w) {
  w.u32(1001);  // request id: client, seq
  w.varint(42);
  w.str("k");
  w.str("v");
}

Payload dm_accept(std::uint64_t lane) {
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(MessageType::kDmAccept));
  w.svarint(1000);
  w.varint(lane);
  put_command(w);
  return w.take();
}

Payload dm_revoke(std::uint64_t lane) {
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(MessageType::kDmRevoke));
  w.varint(lane);
  w.svarint(5);
  w.svarint(500);
  return w.take();
}

Payload catchup_reply(std::uint64_t frontier_lane, std::uint64_t entry_lane) {
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(MessageType::kCatchupReply));
  w.varint(1);  // epoch
  w.varint(0);  // applied
  w.svarint(0);  // frontier
  w.varint(frontier_lane);
  w.varint(0);  // snapshot
  w.varint(0);  // watermarks
  w.varint(1);  // entries
  w.svarint(7);  // pos
  w.varint(entry_lane);
  put_command(w);
  w.varint(0);  // aux
  return w.take();
}

TEST(CodecFuzz, OversizedUint32FieldsRejected) {
  EXPECT_EQ(decode_message<core::DmAccept>(dm_accept(1)).lane, 1u);
  EXPECT_THROW((void)decode_message<core::DmAccept>(dm_accept(kLaneOverflow)), WireError);

  EXPECT_EQ(decode_message<core::DmRevoke>(dm_revoke(0xFFFFFFFFu)).lane, 0xFFFFFFFFu);
  EXPECT_THROW((void)decode_message<core::DmRevoke>(dm_revoke(kLaneOverflow)), WireError);

  const auto honest = decode_message<recovery::CatchupReply>(catchup_reply(2, 1));
  EXPECT_EQ(honest.frontier_lane, 2u);
  ASSERT_EQ(honest.entries.size(), 1u);
  EXPECT_EQ(honest.entries[0].lane, 1u);
  EXPECT_THROW((void)decode_message<recovery::CatchupReply>(catchup_reply(kLaneOverflow, 1)),
               WireError);
  EXPECT_THROW((void)decode_message<recovery::CatchupReply>(catchup_reply(2, kLaneOverflow)),
               WireError);
}

}  // namespace
}  // namespace domino::wire
