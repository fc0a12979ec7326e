#include "util/hexdump.hpp"

#include <array>
#include <cctype>
#include <cstdint>

namespace icsfuzz {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

/// Digit value per character, -1 for non-hex.
constexpr std::array<std::int8_t, 256> kHexValues = [] {
  std::array<std::int8_t, 256> values{};
  values.fill(-1);
  for (int i = 0; i < 10; ++i) values['0' + i] = static_cast<std::int8_t>(i);
  for (int i = 0; i < 6; ++i) {
    values['a' + i] = static_cast<std::int8_t>(10 + i);
    values['A' + i] = static_cast<std::int8_t>(10 + i);
  }
  return values;
}();

int hex_value(char c) { return kHexValues[static_cast<unsigned char>(c)]; }

}  // namespace

std::string to_hex(ByteSpan data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (const std::uint8_t byte : data) {
    out += kHexDigits[byte >> 4];
    out += kHexDigits[byte & 0xF];
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  Bytes out;
  int high = -1;
  for (char c : hex) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    const int value = hex_value(c);
    if (value < 0) return {};
    if (high < 0) {
      high = value;
    } else {
      out.push_back(static_cast<std::uint8_t>((high << 4) | value));
      high = -1;
    }
  }
  if (high >= 0) return {};
  return out;
}

std::string hexdump(ByteSpan data) {
  std::string out;
  for (std::size_t row = 0; row < data.size(); row += 16) {
    // Offset column.
    std::array<char, 9> offset{};
    for (int i = 7; i >= 0; --i) {
      offset[static_cast<std::size_t>(7 - i)] =
          kHexDigits[(row >> (4 * i)) & 0xF];
    }
    offset[8] = '\0';
    out += offset.data();
    out += "  ";
    // Hex column.
    for (std::size_t col = 0; col < 16; ++col) {
      if (row + col < data.size()) {
        const std::uint8_t byte = data[row + col];
        out.push_back(kHexDigits[byte >> 4]);
        out.push_back(kHexDigits[byte & 0xF]);
      } else {
        out += "  ";
      }
      out.push_back(col == 7 ? ' ' : ' ');
      if (col == 7) out.push_back(' ');
    }
    out += " |";
    // ASCII gutter.
    for (std::size_t col = 0; col < 16 && row + col < data.size(); ++col) {
      const std::uint8_t byte = data[row + col];
      out.push_back(byte >= 0x20 && byte < 0x7F ? static_cast<char>(byte) : '.');
    }
    out += "|\n";
  }
  return out;
}

}  // namespace icsfuzz
