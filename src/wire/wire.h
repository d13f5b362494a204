// Byte-level message serialization.
//
// The simulator transports opaque byte buffers between processes (as a real
// message-passing system would), so every protocol message in this repository
// is encoded through this module. That buys two things:
//   * the engine is fully decoupled from the algorithms running on it, and
//   * message sizes are real, so the bit-complexity experiment (E7 in
//     DESIGN.md) measures actual encoded bytes rather than struct sizes.
//
// The format is deliberately small: little-endian fixed-width integers,
// LEB128 varints, and length-prefixed byte strings. Decoding is fully
// bounds-checked and throws WireError on malformed input; a crashed or
// byzantine-looking buffer must never read out of bounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bil::wire {

/// Owned encoded message payload.
using Buffer = std::vector<std::byte>;

/// Thrown by Reader when a buffer is truncated or malformed.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Exact encoded size of Writer::varint(value), in bytes (1..10). Encoders
/// sum these to seed Writer's reserve constructor with the true payload
/// size, so the hot broadcast encode paths allocate exactly once and never
/// reallocate mid-encode regardless of n or label magnitude.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t value) noexcept {
  std::size_t size = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++size;
  }
  return size;
}

/// Append-only encoder.
class Writer {
 public:
  Writer() = default;

  /// Reserves capacity up front when the caller can estimate the size.
  explicit Writer(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  /// Encodes into `storage`'s allocation: its contents are dropped, its
  /// capacity kept, so re-encoding into a recycled buffer (take() hands it
  /// back) allocates only when the new payload outgrows the old one.
  explicit Writer(Buffer&& storage) noexcept : buf_(std::move(storage)) {
    buf_.clear();
  }

  void u8(std::uint8_t value);
  void u16(std::uint16_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);

  /// Unsigned LEB128; 1 byte for values < 128, at most 10 bytes.
  void varint(std::uint64_t value);

  /// Single boolean encoded as one byte (0 or 1).
  void boolean(bool value);

  /// Raw bytes, no length prefix (caller must know the length to decode).
  void raw(std::span<const std::byte> bytes);

  /// varint length prefix followed by the bytes.
  void bytes(std::span<const std::byte> data);

  /// varint length prefix followed by UTF-8 bytes.
  void str(std::string_view text);

  /// Encodes a sequence: varint count, then `encode_one` per element.
  template <typename Range, typename EncodeOne>
  void seq(const Range& range, EncodeOne encode_one) {
    varint(static_cast<std::uint64_t>(std::size(range)));
    for (const auto& element : range) {
      encode_one(*this, element);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] bool empty() const noexcept { return buf_.empty(); }

  /// Releases the encoded buffer; the Writer is empty afterwards.
  [[nodiscard]] Buffer take() && { return std::move(buf_); }

 private:
  Buffer buf_;
};

/// Bounds-checked decoder over a non-owning view of an encoded buffer.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::uint64_t varint();
  [[nodiscard]] bool boolean();

  /// Reads a varint length prefix, then that many bytes.
  [[nodiscard]] std::span<const std::byte> bytes();

  /// Reads a varint length prefix, then that many bytes as a string.
  [[nodiscard]] std::string str();

  /// Decodes a sequence written by Writer::seq. `decode_one(Reader&)` is
  /// called `count` times; the count is validated against the remaining
  /// buffer so a hostile length prefix cannot trigger a huge allocation.
  template <typename DecodeOne>
  auto seq(DecodeOne decode_one)
      -> std::vector<decltype(decode_one(*this))> {
    const std::uint64_t count = varint();
    // Every element occupies at least one byte on the wire.
    if (count > remaining()) {
      throw WireError("sequence count exceeds remaining buffer");
    }
    std::vector<decltype(decode_one(*this))> out;
    out.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      out.push_back(decode_one(*this));
    }
    return out;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

  /// Throws WireError unless the whole buffer has been consumed. Decoders
  /// call this last so that trailing garbage is detected, not ignored.
  void expect_done() const;

 private:
  [[nodiscard]] std::span<const std::byte> take(std::size_t count);

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace bil::wire
