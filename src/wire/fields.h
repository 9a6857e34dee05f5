// Generic field-list codec.
//
// Every wire struct (message, nested entry, catch-up aux blob, durable
// record body) lists its members once, in wire order:
//
//   void fields(auto& f) { f(ts, lane, command); }
//
// One encoder and one decoder walk that list, so the two directions cannot
// disagree. The byte form of each field follows from its C++ type:
//
//   std::int64_t, TimePoint, Duration   zig-zag svarint
//   std::uint64_t, std::uint32_t        varint (a uint32 above 2^32-1 is rejected)
//   std::uint8_t, bool                  one byte
//   NodeId                              fixed u32
//   RequestId                           fixed u32 client, varint seq
//   std::string, Payload                varint length, then the bytes
//   std::optional<T>                    bool byte, then T when present
//   std::vector<T>                      varint count, then the elements
//   Hundredths                          fixed u64 of value * 100
//   a struct with fields()              its fields in order
//
// A vector's count is checked against the bytes left before anything is
// allocated, using T's minimum encoded size, which is itself derived from
// T's field list: hostile length prefixes are rejected by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "wire/codec.h"

namespace domino::wire {

/// Field adaptor for a double carried as a fixed u64 count of hundredths
/// (99.5 travels as 9950). List it as `wire::Hundredths{member}`.
struct Hundredths {
  double& value;
};

namespace detail {

template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
inline constexpr bool kUnsupported = false;

/// Visitor that only looks at field types: sums their minimum sizes.
struct MinSize {
  std::size_t total = 0;
  template <typename... T>
  void operator()(T&&...);
};

}  // namespace detail

template <typename T>
concept HasFields = requires(T& t, detail::MinSize& f) { t.fields(f); };

/// The fewest bytes any value of type T encodes to.
template <typename T>
[[nodiscard]] std::size_t min_encoded_size() {
  if constexpr (std::is_same_v<T, NodeId>) {
    return 4;
  } else if constexpr (std::is_same_v<T, RequestId>) {
    return 5;  // u32 client + one-byte varint
  } else if constexpr (std::is_same_v<T, Hundredths>) {
    return 8;
  } else if constexpr (HasFields<T>) {
    static const std::size_t size = [] {
      T sample{};
      detail::MinSize sizer;
      sample.fields(sizer);
      return sizer.total;
    }();
    return size;
  } else {
    return 1;  // every varint, byte, length prefix and presence flag
  }
}

template <typename... T>
void detail::MinSize::operator()(T&&...) {
  total += (min_encoded_size<std::remove_cvref_t<T>>() + ... + 0);
}

template <typename T>
void write_field(ByteWriter& w, const T& v);
template <typename T>
void read_field(ByteReader& r, T& v);

/// The encoding visitor handed to fields().
class FieldWriter {
 public:
  explicit FieldWriter(ByteWriter& w) : w_(w) {}
  template <typename... T>
  void operator()(const T&... v) {
    (write_field(w_, v), ...);
  }

 private:
  ByteWriter& w_;
};

/// The decoding visitor handed to fields().
class FieldReader {
 public:
  explicit FieldReader(ByteReader& r) : r_(r) {}
  template <typename... T>
  void operator()(T&&... v) {
    (read_field(r_, v), ...);
  }

 private:
  ByteReader& r_;
};

template <typename T>
void write_field(ByteWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, std::int64_t>) {
    w.svarint(v);
  } else if constexpr (std::is_same_v<T, TimePoint> || std::is_same_v<T, Duration>) {
    w.svarint(v.nanos());
  } else if constexpr (std::is_same_v<T, std::uint64_t> || std::is_same_v<T, std::uint32_t>) {
    w.varint(v);
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    w.u8(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    w.boolean(v);
  } else if constexpr (std::is_same_v<T, NodeId>) {
    w.u32(v.value());
  } else if constexpr (std::is_same_v<T, RequestId>) {
    w.u32(v.client.value());
    w.varint(v.seq);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (std::is_same_v<T, Payload>) {
    w.bytes(v);
  } else if constexpr (std::is_same_v<T, Hundredths>) {
    w.u64(static_cast<std::uint64_t>(v.value * 100));
  } else if constexpr (detail::kIsOptional<T>) {
    w.boolean(v.has_value());
    if (v.has_value()) write_field(w, *v);
  } else if constexpr (detail::kIsVector<T>) {
    w.varint(v.size());
    for (const auto& e : v) write_field(w, e);
  } else if constexpr (HasFields<T>) {
    // fields() is one non-const list for both directions; the writer only
    // reads through it.
    FieldWriter f{w};
    const_cast<T&>(v).fields(f);
  } else {
    static_assert(detail::kUnsupported<T>, "no wire form for this field type");
  }
}

template <typename T>
void read_field(ByteReader& r, T& v) {
  if constexpr (std::is_same_v<T, std::int64_t>) {
    v = r.svarint();
  } else if constexpr (std::is_same_v<T, TimePoint> || std::is_same_v<T, Duration>) {
    v = T{r.svarint()};
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = r.varint();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    const std::uint64_t wide = r.varint();
    if (wide > std::numeric_limits<std::uint32_t>::max()) {
      throw WireError("read_field: uint32 field out of range");
    }
    v = static_cast<std::uint32_t>(wide);
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    v = r.u8();
  } else if constexpr (std::is_same_v<T, bool>) {
    v = r.boolean();
  } else if constexpr (std::is_same_v<T, NodeId>) {
    v = NodeId{r.u32()};
  } else if constexpr (std::is_same_v<T, RequestId>) {
    v.client = NodeId{r.u32()};
    v.seq = r.varint();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (std::is_same_v<T, Payload>) {
    v = r.bytes();
  } else if constexpr (std::is_same_v<T, Hundredths>) {
    v.value = static_cast<double>(r.u64()) / 100.0;
  } else if constexpr (detail::kIsOptional<T>) {
    if (r.boolean()) {
      read_field(r, v.emplace());
    } else {
      v.reset();
    }
  } else if constexpr (detail::kIsVector<T>) {
    using E = typename T::value_type;
    v.resize(r.length_prefix(min_encoded_size<E>()));
    for (auto& e : v) read_field(r, e);
  } else if constexpr (HasFields<T>) {
    FieldReader f{r};
    v.fields(f);
  } else {
    static_assert(detail::kUnsupported<T>, "no wire form for this field type");
  }
}

/// Encode a bare field-list struct (no envelope tag): catch-up aux blobs
/// and durable record bodies.
template <HasFields T>
[[nodiscard]] Payload encode(const T& value) {
  ByteWriter w;
  write_field(w, value);
  return w.take();
}

/// Decode a bare field-list struct; throws WireError on malformed input or
/// trailing bytes, exactly like decode_message.
template <HasFields T>
[[nodiscard]] T decode(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  T value;
  read_field(r, value);
  r.expect_exhausted();
  return value;
}

}  // namespace domino::wire
