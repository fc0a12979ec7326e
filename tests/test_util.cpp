// Unit tests for src/util: byte cursors, integer codecs, checksums,
// hex rendering, string helpers and the deterministic RNG.
#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/hexdump.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace icsfuzz {
namespace {

// ---------------------------------------------------------------- ByteReader

TEST(ByteReader, ReadsSequentially) {
  const Bytes data{0x01, 0x02, 0x03};
  ByteReader reader(data);
  EXPECT_EQ(reader.read_u8(), 0x01);
  EXPECT_EQ(reader.read_u8(), 0x02);
  EXPECT_EQ(reader.read_u8(), 0x03);
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.at_end());
}

TEST(ByteReader, UnderrunIsStickyAndReturnsZero) {
  const Bytes data{0xAA};
  ByteReader reader(data);
  EXPECT_EQ(reader.read_u8(), 0xAA);
  EXPECT_EQ(reader.read_u8(), 0);  // past end
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.read_u8(), 0);  // stays failed
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ByteReader, BigEndianU16) {
  const Bytes data{0x12, 0x34};
  ByteReader reader(data);
  EXPECT_EQ(reader.read_u16(Endian::Big), 0x1234);
}

TEST(ByteReader, LittleEndianU16) {
  const Bytes data{0x12, 0x34};
  ByteReader reader(data);
  EXPECT_EQ(reader.read_u16(Endian::Little), 0x3412);
}

TEST(ByteReader, ThreeByteLittleEndianInteger) {
  const Bytes data{0x01, 0x02, 0x03};
  ByteReader reader(data);
  EXPECT_EQ(reader.read_uint(3, Endian::Little), 0x030201u);
}

TEST(ByteReader, RejectsZeroAndOversizedWidths) {
  const Bytes data{0x01, 0x02, 0x03, 0x04};
  ByteReader a(data);
  EXPECT_EQ(a.read_uint(0, Endian::Big), 0u);
  EXPECT_FALSE(a.ok());
  ByteReader b(data);
  EXPECT_EQ(b.read_uint(9, Endian::Big), 0u);
  EXPECT_FALSE(b.ok());
}

TEST(ByteReader, ReadBytesExactAndUnderrun) {
  const Bytes data{1, 2, 3, 4};
  ByteReader reader(data);
  EXPECT_EQ(reader.read_bytes(3), (Bytes{1, 2, 3}));
  EXPECT_TRUE(reader.read_bytes(2).empty());
  EXPECT_FALSE(reader.ok());
}

TEST(ByteReader, ReadRestConsumesEverything) {
  const Bytes data{9, 8, 7};
  ByteReader reader(data);
  reader.read_u8();
  EXPECT_EQ(reader.read_rest(), (Bytes{8, 7}));
  EXPECT_TRUE(reader.at_end());
  EXPECT_TRUE(reader.ok());
}

TEST(ByteReader, PeekDoesNotAdvance) {
  const Bytes data{5, 6};
  ByteReader reader(data);
  EXPECT_EQ(reader.peek_u8(), 5);
  EXPECT_EQ(reader.peek_u8(1), 6);
  EXPECT_EQ(reader.position(), 0u);
  EXPECT_EQ(reader.read_u8(), 5);
}

TEST(ByteReader, SkipAdvancesOrFails) {
  const Bytes data{1, 2, 3};
  ByteReader reader(data);
  reader.skip(2);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.read_u8(), 3);
  reader.skip(1);
  EXPECT_FALSE(reader.ok());
}

// ---------------------------------------------------------------- ByteWriter

TEST(ByteWriter, WritesAllWidthsAndOrders) {
  ByteWriter writer;
  writer.write_u8(0xAB);
  writer.write_u16(0x1234, Endian::Big);
  writer.write_u16(0x1234, Endian::Little);
  writer.write_u32(0xDEADBEEF, Endian::Big);
  EXPECT_EQ(writer.bytes(),
            (Bytes{0xAB, 0x12, 0x34, 0x34, 0x12, 0xDE, 0xAD, 0xBE, 0xEF}));
}

TEST(ByteWriter, PatchOverwritesInPlace) {
  ByteWriter writer;
  writer.write_u32(0, Endian::Big);
  EXPECT_TRUE(writer.patch_uint(1, 0xBBCC, 2, Endian::Big));
  EXPECT_EQ(writer.bytes(), (Bytes{0x00, 0xBB, 0xCC, 0x00}));
}

TEST(ByteWriter, PatchOutOfRangeFails) {
  ByteWriter writer;
  writer.write_u16(0, Endian::Big);
  EXPECT_FALSE(writer.patch_uint(1, 0xFFFF, 2, Endian::Big));
}

TEST(EncodeDecode, RoundTripsAllWidths) {
  for (std::size_t width = 1; width <= 8; ++width) {
    const std::uint64_t value = 0x0123456789ABCDEFULL &
                                (width >= 8 ? ~0ULL : ((1ULL << (width * 8)) - 1));
    for (Endian endian : {Endian::Big, Endian::Little}) {
      const Bytes encoded = encode_uint(value, width, endian);
      ASSERT_EQ(encoded.size(), width);
      EXPECT_EQ(decode_uint(encoded, endian), value)
          << "width=" << width;
    }
  }
}

TEST(EncodeDecode, EmptySpanDecodesToZero) {
  EXPECT_EQ(decode_uint(ByteSpan{}, Endian::Big), 0u);
}

// ----------------------------------------------------------------- Checksums

TEST(ContentHash, PinnedValuesAndTheLengthFinalizer) {
  // The executed-packet dedup key (fnv1a64) is what checkpointed dedup
  // tables hold, so its values are pinned: the published FNV-1a-64 test
  // vectors. content_hash folds the length in.
  EXPECT_EQ(fnv1a64({}), 0xcbf29ce484222325ULL);
  const Bytes a = to_bytes("a");
  EXPECT_EQ(fnv1a64(a), 0xaf63dc4c8601ec8cULL);
  const Bytes foobar = to_bytes("foobar");
  EXPECT_EQ(fnv1a64(foobar), 0x85944171f73967e8ULL);
  EXPECT_EQ(content_hash(foobar), fnv1a64(foobar) ^ foobar.size());
  EXPECT_EQ(content_hash({}), fnv1a64({}));
}

TEST(Checksum, Crc32KnownVector) {
  // IEEE CRC-32 of "123456789".
  const Bytes data = to_bytes("123456789");
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Checksum, Crc32SlicedMatchesTheBytewiseDefinition) {
  // crc32 folds eight bytes per step; every length and start alignment
  // must agree with the one-byte-per-step definition (reflected, poly
  // 0xEDB88320).
  Bytes data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; offset + length <= data.size(); ++length) {
      std::uint32_t reference = 0xFFFFFFFFU;
      for (std::size_t i = offset; i < offset + length; ++i) {
        reference ^= data[i];
        for (int bit = 0; bit < 8; ++bit) {
          reference = (reference & 1U) ? 0xEDB88320U ^ (reference >> 1)
                                       : reference >> 1;
        }
      }
      ASSERT_EQ(crc32(ByteSpan(data.data() + offset, length)),
                reference ^ 0xFFFFFFFFU)
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Checksum, Crc16ModbusKnownVector) {
  // CRC-16/MODBUS of "123456789".
  const Bytes data = to_bytes("123456789");
  EXPECT_EQ(crc16_modbus(data), 0x4B37u);
}

TEST(Checksum, Dnp3KnownVector) {
  // CRC-16/DNP of "123456789".
  const Bytes data = to_bytes("123456789");
  EXPECT_EQ(crc16_dnp3(data), 0xEA82u);
}

TEST(Checksum, LrcComplementsSum) {
  const Bytes data{0x10, 0x20, 0x30};
  EXPECT_EQ(static_cast<std::uint8_t>(lrc8(data) + sum8(data)), 0);
}

TEST(Checksum, EmptyInputs) {
  EXPECT_EQ(crc32(ByteSpan{}), 0u);
  EXPECT_EQ(crc16_modbus(ByteSpan{}), 0xFFFFu);
  EXPECT_EQ(sum8(ByteSpan{}), 0u);
  EXPECT_EQ(fletcher16(ByteSpan{}), 0u);
}

TEST(Checksum, Fletcher16Sensitivity) {
  const Bytes a{1, 2, 3};
  const Bytes b{3, 2, 1};  // same bytes, different order
  EXPECT_NE(fletcher16(a), fletcher16(b));
}

// ------------------------------------------------------------------ Hexdump

TEST(Hex, ToHexAndBack) {
  const Bytes data{0x00, 0xFF, 0x5A};
  EXPECT_EQ(to_hex(data), "00ff5a");
  EXPECT_EQ(from_hex("00ff5a"), data);
  EXPECT_EQ(from_hex("00 FF 5a"), data);  // whitespace + case tolerated
}

TEST(Hex, FromHexRejectsBadInput) {
  EXPECT_TRUE(from_hex("0g").empty());
  EXPECT_TRUE(from_hex("abc").empty());  // odd digit count
}

TEST(Hex, HexdumpShape) {
  const Bytes data(20, 0x41);  // 'A' x 20 -> two rows
  const std::string dump = hexdump(data);
  EXPECT_NE(dump.find("00000000"), std::string::npos);
  EXPECT_NE(dump.find("00000010"), std::string::npos);
  EXPECT_NE(dump.find("AAAA"), std::string::npos);
}

TEST(Hex, HexdumpNonPrintableAsDots) {
  const Bytes data{0x00, 0x1F, 0x7F};
  const std::string dump = hexdump(data);
  EXPECT_NE(dump.find("|...|"), std::string::npos);
}

// ------------------------------------------------------------------- Strings

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\n"), "");
}

TEST(Strings, ParseUintDecimalAndHex) {
  EXPECT_EQ(parse_uint("42"), 42u);
  EXPECT_EQ(parse_uint("0x2A"), 42u);
  EXPECT_EQ(parse_uint(" 7 "), 7u);
  EXPECT_FALSE(parse_uint("").has_value());
  EXPECT_FALSE(parse_uint("12a").has_value());
  EXPECT_FALSE(parse_uint("0x").has_value());
}

TEST(Strings, ParseBool) {
  EXPECT_EQ(parse_bool("true"), true);
  EXPECT_EQ(parse_bool("FALSE"), false);
  EXPECT_EQ(parse_bool("1"), true);
  EXPECT_FALSE(parse_bool("yes").has_value());
}

TEST(Strings, PrefixSuffixJoinLower) {
  EXPECT_TRUE(starts_with("abcdef", "abc"));
  EXPECT_FALSE(starts_with("ab", "abc"));
  EXPECT_TRUE(ends_with("abcdef", "def"));
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_EQ(join({"a", "b"}, "-"), "a-b");
}

// ----------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(13), 13u);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0, 100));
    EXPECT_TRUE(rng.chance(100, 100));
  }
  EXPECT_FALSE(rng.chance(1, 0));  // zero denominator
}

TEST(Rng, BytesLengthAndVariety) {
  Rng rng(13);
  const auto data = rng.bytes(256);
  ASSERT_EQ(data.size(), 256u);
  bool varied = false;
  for (std::size_t i = 1; i < data.size(); ++i) varied |= data[i] != data[0];
  EXPECT_TRUE(varied);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = items;
  rng.shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, sorted);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// ------------------------------------------------------- checked CLI parses

TEST(Strings, ParseU64AcceptsStrictDecimal) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64(" 7 "), 7u);  // trimmed like the rest of the family
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
}

TEST(Strings, ParseU64RejectsGarbageInsteadOfReturningZero) {
  // The atoi/strtoull bug class this helper exists to kill: every one of
  // these used to silently become 0 (or saturate) through C conversions.
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("banana").has_value());
  EXPECT_FALSE(parse_u64("12abc").has_value());
  EXPECT_FALSE(parse_u64("-3").has_value());
  EXPECT_FALSE(parse_u64("+3").has_value());
  EXPECT_FALSE(parse_u64("0x10").has_value());
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());  // 2^64
  EXPECT_FALSE(parse_u64("99999999999999999999999").has_value());
}

TEST(Strings, ParseU64ReportsWhatAndWhy) {
  std::string error;
  EXPECT_FALSE(parse_u64("banana", "--events", &error).has_value());
  EXPECT_NE(error.find("--events"), std::string::npos);
  EXPECT_NE(error.find("banana"), std::string::npos);
}

TEST(Strings, ParseIntSignedRange) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("-1"), -1);
  EXPECT_EQ(parse_int("+25"), 25);
  EXPECT_EQ(parse_int("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(parse_int("-9223372036854775808"), INT64_MIN);
  EXPECT_FALSE(parse_int("9223372036854775808").has_value());
  EXPECT_FALSE(parse_int("-9223372036854775809").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("-").has_value());
  EXPECT_FALSE(parse_int("1.5").has_value());
}

TEST(Strings, ParseIntRejectsWhitespaceAfterTheSign) {
  // The whole trimmed string must be the numeral: the digits follow the
  // sign directly.
  EXPECT_FALSE(parse_int("- 5").has_value());
  EXPECT_FALSE(parse_int("+ 4").has_value());
  EXPECT_FALSE(parse_int("-\t5").has_value());
  EXPECT_FALSE(parse_int(" + 4 ").has_value());
  EXPECT_FALSE(parse_int("+").has_value());
  EXPECT_FALSE(parse_int("+-5").has_value());
  EXPECT_EQ(parse_int(" -5 "), -5);
  EXPECT_EQ(parse_int("\t+4\n"), 4);
  std::string error;
  EXPECT_FALSE(parse_int("- 5", "--interval-ms", &error).has_value());
  EXPECT_NE(error.find("--interval-ms"), std::string::npos);
  EXPECT_NE(error.find("- 5"), std::string::npos);
}

// ------------------------------------------------ JSON \uXXXX + surrogates

TEST(Json, DecodesBasicPlaneEscapes) {
  const auto parsed = json_parse("\"\\u0041\\u00e9\\u20ac\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->string, "A\xC3\xA9\xE2\x82\xAC");  // A é €
}

TEST(Json, DecodesSurrogatePairsToFourByteUtf8) {
  // U+1F600 (😀) = \ud83d\ude00: the pair must decode to one code point,
  // F0 9F 98 80 — not six bytes of raw surrogate-encoded UTF-8.
  const auto parsed = json_parse("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->string, "\xF0\x9F\x98\x80");
}

TEST(Json, RejectsLoneSurrogates) {
  // A high surrogate with no low half, a bare low surrogate, and a high
  // surrogate followed by a non-surrogate escape are all parse errors —
  // the old decoder emitted them as invalid 3-byte UTF-8.
  EXPECT_FALSE(json_parse("\"\\ud83d\"").has_value());
  EXPECT_FALSE(json_parse("\"\\ude00\"").has_value());
  EXPECT_FALSE(json_parse("\"\\ud83dx\"").has_value());
  EXPECT_FALSE(json_parse("\"\\ud83d\\u0041\"").has_value());
  EXPECT_FALSE(json_parse("\"\\ud83d\\ud83d\"").has_value());
}

TEST(Json, SurrogatePairSurvivesObjectRoundTrip) {
  const auto parsed =
      json_parse("{\"name\": \"\\ud83d\\ude00 ok\", \"n\": 3}");
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* name = parsed->find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->string, "\xF0\x9F\x98\x80 ok");
}

}  // namespace
}  // namespace icsfuzz
