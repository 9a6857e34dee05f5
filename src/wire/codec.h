// Binary wire codec.
//
// Every protocol message in this repository is serialized to bytes before
// crossing the simulated network and parsed on receipt, mirroring what a
// gRPC/protobuf deployment would do. The codec is a compact hand-rolled
// format: little-endian fixed integers, LEB128 varints, zig-zag signed
// varints, and length-prefixed strings. Messages do not call these
// primitives themselves: wire/fields.h maps each struct's field list onto
// them.
//
// Decoding is defensive: all reads are bounds-checked and malformed input
// raises WireError rather than reading out of bounds.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"

namespace domino::wire {

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

using Payload = std::vector<std::uint8_t>;

/// Return an encode buffer to this thread's free list so the next
/// ByteWriter reuses its capacity instead of allocating. The list is
/// bounded (a fixed number of buffers, each of bounded capacity); a buffer
/// beyond the bounds, or without capacity, is simply freed. Passing any
/// Payload is safe: it is cleared before it is handed out again.
void recycle(Payload&& payload);

class ByteWriter {
 public:
  /// Starts from a recycled buffer (see recycle()) when one is available.
  ByteWriter();
  /// A writer destroyed without take() recycles its buffer.
  ~ByteWriter();
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);

  /// LEB128 unsigned varint.
  void varint(std::uint64_t v);

  /// Zig-zag encoded signed varint.
  void svarint(std::int64_t v);

  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);
  void bytes(std::span<const std::uint8_t> data);

  void node_id(NodeId id) { u32(id.value()); }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  /// Hand the encoded bytes to the caller; the writer is empty afterwards.
  [[nodiscard]] Payload take() { return std::move(buf_); }
  [[nodiscard]] const Payload& buffer() const { return buf_; }

 private:
  Payload buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t varint();
  std::int64_t svarint();

  /// Read a container length prefix, rejecting values that could not
  /// possibly be backed by the remaining bytes (each element occupies at
  /// least `min_element_bytes`). Guards decoders against allocation bombs.
  std::uint64_t length_prefix(std::size_t min_element_bytes = 1);
  bool boolean() { return u8() != 0; }
  std::string str();
  Payload bytes();

  NodeId node_id() { return NodeId{u32()}; }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

  /// Throws WireError unless all bytes have been consumed.
  void expect_exhausted() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace domino::wire
