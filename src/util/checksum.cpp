#include "util/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace icsfuzz {
namespace {

/// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table, and
/// table[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups fold eight input bytes at once (checkpoint records checksum
/// megabytes; one byte per step ran at ~280 MB/s).
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFU] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr std::array<std::uint16_t, 256> make_crc16_table(std::uint16_t poly) {
  std::array<std::uint16_t, 256> table{};
  for (std::uint16_t i = 0; i < 256; ++i) {
    std::uint16_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? static_cast<std::uint16_t>(poly ^ (c >> 1))
                   : static_cast<std::uint16_t>(c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Tables =
    make_crc32_tables();
const std::array<std::uint16_t, 256> kCrc16ModbusTable = make_crc16_table(0xA001);
const std::array<std::uint16_t, 256> kCrc16Dnp3Table = make_crc16_table(0xA6BC);

}  // namespace

std::uint32_t crc32(ByteSpan data) {
  static_assert(std::endian::native == std::endian::little);
  const auto& t = kCrc32Tables;
  std::uint32_t crc = 0xFFFFFFFFU;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    std::uint32_t low = 0;
    std::uint32_t high = 0;
    std::memcpy(&low, p, 4);
    std::memcpy(&high, p + 4, 4);
    low ^= crc;
    crc = t[7][low & 0xFFU] ^ t[6][(low >> 8) & 0xFFU] ^
          t[5][(low >> 16) & 0xFFU] ^ t[4][low >> 24] ^
          t[3][high & 0xFFU] ^ t[2][(high >> 8) & 0xFFU] ^
          t[1][(high >> 16) & 0xFFU] ^ t[0][high >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = t[0][(crc ^ *p) & 0xFFU] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

std::uint16_t crc16_modbus(ByteSpan data) {
  std::uint16_t crc = 0xFFFF;
  for (std::uint8_t byte : data) {
    crc = static_cast<std::uint16_t>(kCrc16ModbusTable[(crc ^ byte) & 0xFFU] ^
                                     (crc >> 8));
  }
  return crc;
}

std::uint16_t crc16_dnp3(ByteSpan data) {
  std::uint16_t crc = 0x0000;
  for (std::uint8_t byte : data) {
    crc = static_cast<std::uint16_t>(kCrc16Dnp3Table[(crc ^ byte) & 0xFFU] ^
                                     (crc >> 8));
  }
  return static_cast<std::uint16_t>(~crc);
}

std::uint8_t lrc8(ByteSpan data) {
  std::uint8_t sum = 0;
  for (std::uint8_t byte : data) sum = static_cast<std::uint8_t>(sum + byte);
  return static_cast<std::uint8_t>(-sum);
}

std::uint8_t sum8(ByteSpan data) {
  std::uint8_t sum = 0;
  for (std::uint8_t byte : data) sum = static_cast<std::uint8_t>(sum + byte);
  return sum;
}

std::uint16_t fletcher16(ByteSpan data) {
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  for (std::uint8_t byte : data) {
    a = static_cast<std::uint16_t>((a + byte) % 255);
    b = static_cast<std::uint16_t>((b + a) % 255);
  }
  return static_cast<std::uint16_t>((b << 8) | a);
}

}  // namespace icsfuzz
