// Byte-level primitives shared by every layer of icsfuzz.
//
// `Bytes` is the universal packet currency (a plain std::vector<uint8_t>).
// `ByteReader` / `ByteWriter` provide bounds-checked, endian-aware cursor
// access; the reader reports truncation through its `ok()` state instead of
// throwing, because protocol parsers routinely probe past the end of
// malformed packets and must recover cheaply.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace icsfuzz {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;

/// Byte order for multi-byte integer fields.
enum class Endian : std::uint8_t { Big, Little };

/// Returns a Bytes copy of an arbitrary string (useful for ASCII fields).
Bytes to_bytes(std::string_view text);

/// Returns the contents of `span` as a std::string (lossy for non-ASCII).
std::string to_string(ByteSpan span);

/// Concatenates `tail` onto `head` in place.
void append(Bytes& head, ByteSpan tail);

/// 64-bit FNV-1a content hash (finalized with the length) — the shared
/// dedup key of the puzzle corpus and the parallel seed exchange. Both
/// must agree on this function or cross-component dedup drifts.
std::uint64_t content_hash(ByteSpan data);

/// content_hash before the length is folded in: 64-bit FNV-1a with the
/// published offset basis and prime, the executed-packet dedup key.
/// Checkpointed dedup tables hold these values (checkpoint format v5).
std::uint64_t fnv1a64(ByteSpan data);

/// Stateless splitmix64 finalizer: the shared 64-bit scrambler behind the
/// order-insensitive set fingerprints (coverage trace hash, replay path
/// fingerprint).
std::uint64_t mix64(std::uint64_t value);

/// A non-owning, bounds-checked forward cursor over a byte span.
///
/// All `read_*` calls return a value and clear `ok()` on underrun; once the
/// reader is !ok() every further read returns 0/empty. This "sticky failure"
/// model lets parsers chain reads and test validity once.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }
  [[nodiscard]] bool at_end() const { return pos_ >= data_.size(); }

  /// Reads one byte; clears ok() when exhausted.
  std::uint8_t read_u8();

  /// Reads an unsigned integer of `width` bytes (1..8) in the given order.
  std::uint64_t read_uint(std::size_t width, Endian endian);

  std::uint16_t read_u16(Endian endian);
  std::uint32_t read_u32(Endian endian);

  /// Reads exactly `count` bytes; returns an empty vector and clears ok()
  /// when fewer remain.
  Bytes read_bytes(std::size_t count);

  /// Returns all remaining bytes (possibly empty) and advances to the end.
  Bytes read_rest();

  /// Non-allocating read_rest: a view of the remaining bytes, advancing to
  /// the end. The span aliases the reader's underlying buffer.
  ByteSpan rest_span();

  /// Peeks one byte at `offset` from the cursor without advancing.
  /// Clears ok() if out of range.
  std::uint8_t peek_u8(std::size_t offset = 0);

  /// Skips `count` bytes; clears ok() on underrun.
  void skip(std::size_t count);

 private:
  ByteSpan data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// An appending, endian-aware byte sink used by packet builders and fixups.
class ByteWriter {
 public:
  ByteWriter() = default;

  void write_u8(std::uint8_t value);
  void write_uint(std::uint64_t value, std::size_t width, Endian endian);
  void write_u16(std::uint16_t value, Endian endian);
  void write_u32(std::uint32_t value, Endian endian);
  void write_bytes(ByteSpan data);
  void write_string(std::string_view text);

  /// Appends each argument as one byte (truncated to 8 bits) — the
  /// allocation-free replacement for write_bytes(Bytes{...}) literals.
  template <typename... Ts>
  void write_u8s(Ts... values) {
    (write_u8(static_cast<std::uint8_t>(values)), ...);
  }

  /// Overwrites `width` bytes starting at `offset` (must already exist).
  /// Returns false when the patch range is out of bounds.
  bool patch_uint(std::size_t offset, std::uint64_t value, std::size_t width,
                  Endian endian);

  /// Drops the contents but keeps the capacity — the reuse primitive of
  /// the allocation-free server hot paths.
  void clear() { out_.clear(); }

  /// Shrinks back to `size` bytes (no-op when already smaller) — lets a
  /// builder abandon a partially-written tail without reallocating.
  void truncate(std::size_t size) {
    if (size < out_.size()) out_.resize(size);
  }

  [[nodiscard]] std::size_t size() const { return out_.size(); }
  [[nodiscard]] const Bytes& bytes() const { return out_; }
  [[nodiscard]] ByteSpan span() const { return ByteSpan(out_); }
  Bytes take() { return std::move(out_); }

 private:
  Bytes out_;
};

/// Encodes `value` as `width` bytes with the requested byte order.
Bytes encode_uint(std::uint64_t value, std::size_t width, Endian endian);

/// Buffer-reusing encode_uint: writes the bytes into `out` (cleared first,
/// capacity retained). Inline, as is decode_uint: File Fixup and leaf
/// generation call them dozens of times per packet.
inline void encode_uint_into(std::uint64_t value, std::size_t width,
                             Endian endian, Bytes& out) {
  if (width == 0 || width > 8) {
    out.clear();
    return;
  }
  out.resize(width);  // every byte is written below
  if (endian == Endian::Big) {
    for (std::size_t i = 0; i < width; ++i) {
      out[width - 1 - i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
  } else {
    for (std::size_t i = 0; i < width; ++i) {
      out[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
  }
}

/// Decodes `span` (1..8 bytes) as an unsigned integer; returns 0 for empty.
inline std::uint64_t decode_uint(ByteSpan span, Endian endian) {
  if (span.empty() || span.size() > 8) return 0;
  std::uint64_t value = 0;
  if (endian == Endian::Big) {
    for (std::uint8_t byte : span) value = (value << 8) | byte;
  } else {
    for (std::size_t i = span.size(); i > 0; --i) {
      value = (value << 8) | span[i - 1];
    }
  }
  return value;
}

}  // namespace icsfuzz
