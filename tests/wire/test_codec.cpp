#include "wire/codec.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "wire/fields.h"

namespace domino::wire {
namespace {

TEST(Codec, FixedWidthRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  const Payload p = w.take();
  ByteReader r{p};
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, VarintBoundaries) {
  for (std::uint64_t v : std::vector<std::uint64_t>{
           0, 1, 127, 128, 16383, 16384, std::numeric_limits<std::uint64_t>::max()}) {
    ByteWriter w;
    w.varint(v);
    const Payload p = w.take();
    ByteReader r{p};
    EXPECT_EQ(r.varint(), v);
  }
}

TEST(Codec, VarintCompactness) {
  ByteWriter w;
  w.varint(5);
  EXPECT_EQ(w.size(), 1u);
  ByteWriter w2;
  w2.varint(300);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Codec, SvarintSignedValues) {
  for (std::int64_t v : std::vector<std::int64_t>{
           0, 1, -1, 63, -64, 1'000'000, -1'000'000,
           std::numeric_limits<std::int64_t>::max(),
           std::numeric_limits<std::int64_t>::min()}) {
    ByteWriter w;
    w.svarint(v);
    const Payload p = w.take();
    ByteReader r{p};
    EXPECT_EQ(r.svarint(), v);
  }
}

TEST(Codec, ZigZagSmallNegativesAreCompact) {
  ByteWriter w;
  w.svarint(-1);
  EXPECT_EQ(w.size(), 1u);
}

TEST(Codec, StringRoundTrip) {
  ByteWriter w;
  w.str("");
  w.str("hello");
  w.str(std::string(1000, 'x'));
  const Payload p = w.take();
  ByteReader r{p};
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), std::string(1000, 'x'));
}

TEST(Codec, BytesRoundTrip) {
  const std::vector<std::uint8_t> data{0x00, 0xFF, 0x42};
  ByteWriter w;
  w.bytes(data);
  const Payload p = w.take();
  ByteReader r{p};
  EXPECT_EQ(r.bytes(), data);
}

TEST(Codec, DomainTypesRoundTrip) {
  ByteWriter w;
  write_field(w, NodeId{42});
  write_field(w, RequestId{NodeId{7}, 999});
  write_field(w, TimePoint::epoch() + milliseconds(123));
  write_field(w, milliseconds(-55));
  write_field(w, true);
  const Payload p = w.take();
  ByteReader r{p};
  NodeId node;
  RequestId request;
  TimePoint at;
  Duration d;
  bool flag = false;
  read_field(r, node);
  read_field(r, request);
  read_field(r, at);
  read_field(r, d);
  read_field(r, flag);
  EXPECT_EQ(node, NodeId{42});
  EXPECT_EQ(request, (RequestId{NodeId{7}, 999}));
  EXPECT_EQ(at, TimePoint::epoch() + milliseconds(123));
  EXPECT_EQ(d, milliseconds(-55));
  EXPECT_TRUE(flag);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, TruncatedInputThrows) {
  ByteWriter w;
  w.u32(12345);
  Payload p = w.take();
  p.pop_back();
  ByteReader r{p};
  EXPECT_THROW(r.u32(), WireError);
}

TEST(Codec, TruncatedStringThrows) {
  ByteWriter w;
  w.varint(100);  // claims 100 bytes follow
  const Payload p = w.take();
  ByteReader r{p};
  EXPECT_THROW(r.str(), WireError);
}

TEST(Codec, UnterminatedVarintThrows) {
  const Payload p{0x80, 0x80};  // continuation bits with no terminator
  ByteReader r{p};
  EXPECT_THROW(r.varint(), WireError);
}

TEST(Codec, OverlongVarintThrows) {
  const Payload p(11, 0x80);
  ByteReader r{p};
  EXPECT_THROW(r.varint(), WireError);
}

// A 10-byte varint carries only bit 63 in its last byte; a larger 10th byte
// would be silently truncated (FF x9 7F read as UINT64_MAX, 2^64 as 0).
TEST(Codec, VarintTenthByteAboveOneThrows) {
  Payload all_ones(9, 0xFF);
  all_ones.push_back(0x7F);
  ByteReader r1{all_ones};
  EXPECT_THROW(r1.varint(), WireError);

  Payload two_to_64(9, 0x80);  // 2^64: bit 64 set, every lower bit clear
  two_to_64.push_back(0x02);
  ByteReader r2{two_to_64};
  EXPECT_THROW(r2.varint(), WireError);
}

TEST(Codec, VarintTenthByteOneDecodesMax) {
  Payload p(9, 0xFF);
  p.push_back(0x01);
  ByteReader r{p};
  EXPECT_EQ(r.varint(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(r.exhausted());
}

// A length of 2^64 - 1 after a consumed byte made `pos + n` wrap past the
// bounds check, escaping as std::length_error instead of WireError.
Payload huge_length_after_one_byte() {
  ByteWriter w;
  w.u8(7);
  w.varint(std::numeric_limits<std::uint64_t>::max());
  w.u8(0);
  return w.take();
}

TEST(Codec, HugeStringLengthThrowsWireError) {
  const Payload p = huge_length_after_one_byte();
  ByteReader r{p};
  r.u8();
  EXPECT_THROW(r.str(), WireError);
}

TEST(Codec, HugeBytesLengthThrowsWireError) {
  const Payload p = huge_length_after_one_byte();
  ByteReader r{p};
  r.u8();
  EXPECT_THROW(r.bytes(), WireError);
}

TEST(Codec, RecycledBufferStartsEmpty) {
  recycle(Payload{9, 9, 9});
  ByteWriter w;
  w.u8(1);
  EXPECT_EQ(w.take(), (Payload{1}));
}

TEST(Codec, ExpectExhaustedThrowsOnTrailing) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  const Payload p = w.take();
  ByteReader r{p};
  r.u8();
  EXPECT_THROW(r.expect_exhausted(), WireError);
  r.u8();
  EXPECT_NO_THROW(r.expect_exhausted());
}

TEST(CodecProperty, RandomSequencesRoundTrip) {
  Rng rng(77);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::int64_t> svals;
    std::vector<std::uint64_t> uvals;
    ByteWriter w;
    for (int i = 0; i < 40; ++i) {
      const auto u = rng.next_u64();
      const auto s = static_cast<std::int64_t>(rng.next_u64());
      uvals.push_back(u >> (rng.next_u64() % 64));
      svals.push_back(s);
      w.varint(uvals.back());
      w.svarint(svals.back());
    }
    const Payload p = w.take();
    ByteReader r{p};
    for (int i = 0; i < 40; ++i) {
      EXPECT_EQ(r.varint(), uvals[static_cast<std::size_t>(i)]);
      EXPECT_EQ(r.svarint(), svals[static_cast<std::size_t>(i)]);
    }
    EXPECT_TRUE(r.exhausted());
  }
}

}  // namespace
}  // namespace domino::wire
