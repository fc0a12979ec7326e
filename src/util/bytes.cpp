#include "util/bytes.hpp"

#include <algorithm>

namespace icsfuzz {

Bytes to_bytes(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

std::string to_string(ByteSpan span) {
  return std::string(span.begin(), span.end());
}

void append(Bytes& head, ByteSpan tail) {
  head.insert(head.end(), tail.begin(), tail.end());
}

std::uint64_t content_hash(ByteSpan data) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (std::uint8_t byte : data) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  }
  return hash ^ data.size();
}

std::uint64_t mix64(std::uint64_t value) {
  value += 0x9E3779B97F4A7C15ULL;
  value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9ULL;
  value = (value ^ (value >> 27)) * 0x94D049BB133111EBULL;
  return value ^ (value >> 31);
}

std::uint8_t ByteReader::read_u8() {
  if (!ok_ || pos_ >= data_.size()) {
    ok_ = false;
    return 0;
  }
  return data_[pos_++];
}

std::uint64_t ByteReader::read_uint(std::size_t width, Endian endian) {
  if (width == 0 || width > 8 || !ok_ || remaining() < width) {
    ok_ = false;
    return 0;
  }
  std::uint64_t value = 0;
  if (endian == Endian::Big) {
    for (std::size_t i = 0; i < width; ++i) {
      value = (value << 8) | data_[pos_ + i];
    }
  } else {
    for (std::size_t i = width; i > 0; --i) {
      value = (value << 8) | data_[pos_ + i - 1];
    }
  }
  pos_ += width;
  return value;
}

std::uint16_t ByteReader::read_u16(Endian endian) {
  return static_cast<std::uint16_t>(read_uint(2, endian));
}

std::uint32_t ByteReader::read_u32(Endian endian) {
  return static_cast<std::uint32_t>(read_uint(4, endian));
}

Bytes ByteReader::read_bytes(std::size_t count) {
  if (!ok_ || remaining() < count) {
    ok_ = false;
    return {};
  }
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + count));
  pos_ += count;
  return out;
}

Bytes ByteReader::read_rest() {
  if (!ok_) return {};
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_), data_.end());
  pos_ = data_.size();
  return out;
}

ByteSpan ByteReader::rest_span() {
  if (!ok_) return {};
  const ByteSpan rest = data_.subspan(pos_);
  pos_ = data_.size();
  return rest;
}

std::uint8_t ByteReader::peek_u8(std::size_t offset) {
  if (!ok_ || pos_ + offset >= data_.size()) {
    ok_ = false;
    return 0;
  }
  return data_[pos_ + offset];
}

void ByteReader::skip(std::size_t count) {
  if (!ok_ || remaining() < count) {
    ok_ = false;
    return;
  }
  pos_ += count;
}

void ByteWriter::write_u8(std::uint8_t value) { out_.push_back(value); }

void ByteWriter::write_uint(std::uint64_t value, std::size_t width,
                            Endian endian) {
  // Bytes go straight into the output vector (no encode_uint temporary):
  // the server hot paths rely on the writer staying allocation-free once
  // its capacity has converged.
  if (width == 0 || width > 8) return;
  if (endian == Endian::Big) {
    for (std::size_t i = width; i > 0; --i) {
      out_.push_back(static_cast<std::uint8_t>(value >> (8 * (i - 1))));
    }
  } else {
    for (std::size_t i = 0; i < width; ++i) {
      out_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }
}

void ByteWriter::write_u16(std::uint16_t value, Endian endian) {
  write_uint(value, 2, endian);
}

void ByteWriter::write_u32(std::uint32_t value, Endian endian) {
  write_uint(value, 4, endian);
}

void ByteWriter::write_bytes(ByteSpan data) { append(out_, data); }

void ByteWriter::write_string(std::string_view text) {
  out_.insert(out_.end(), text.begin(), text.end());
}

bool ByteWriter::patch_uint(std::size_t offset, std::uint64_t value,
                            std::size_t width, Endian endian) {
  if (width == 0 || width > 8 || offset + width > out_.size()) return false;
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t shift =
        8 * (endian == Endian::Big ? width - 1 - i : i);
    out_[offset + i] = static_cast<std::uint8_t>(value >> shift);
  }
  return true;
}

Bytes encode_uint(std::uint64_t value, std::size_t width, Endian endian) {
  Bytes out;
  encode_uint_into(value, width, endian, out);
  return out;
}

void encode_uint_into(std::uint64_t value, std::size_t width, Endian endian,
                      Bytes& out) {
  out.clear();
  if (width == 0 || width > 8) return;
  out.resize(width);
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

std::uint64_t decode_uint(ByteSpan span, Endian endian) {
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
