// Self-fuzzing harness for the CLI number parsers of util/strings.hpp:
// parse_u64 and parse_int (strict decimal, the tools' options and env
// knobs) and parse_uint (decimal or 0x hex, the pit attributes).
//
// Each parser promises "the whole trimmed string": trim() the input, and
// what is left must be exactly one numeral of the parser's grammar whose
// value fits in 64 bits. std::from_chars is that grammar without the
// trimming, so it is the oracle: on the trimmed text
//   * parse_u64 accepts exactly what from_chars<uint64_t> consumes whole;
//   * parse_int does the same against from_chars<int64_t>, after one
//     leading '+' (which from_chars does not take) not followed by '-';
//   * parse_uint matches from_chars<uint64_t> in base 10, or in base 16
//     after a 0x / 0X prefix,
// and where both accept, the values agree.
//
// The harness drives them with the fuzzer's own byte mutators (the
// operators Strategy::ByteMutation stacks), in the shape of
// test_selffuzz_pit.cpp: the pool starts with numerals and the boundary
// values of each grammar (INT64_MIN, UINT64_MAX, one past and one short of
// each, 0x forms), each round stacks 1-4 mutations on a pool entry,
// sometimes drops a sign or a whitespace character in anywhere (what a
// numeral typed on a command line meets), and keeps some inputs as new
// seeds.
//
// The budget is fixed; the seed is fixed too unless ICSFUZZ_STRESS_SEED is
// set, which the CI fault-stress lane does with a fresh value per round.
#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mutation/mutator.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace icsfuzz {
namespace {

constexpr int kRounds = 20000;
constexpr std::size_t kPoolCap = 256;

/// Numerals and the boundary values of the three grammars.
const char* const kSeeds[] = {
    "0",
    "1",
    "-1",
    "+1",
    "+25",
    "42",
    " 7 ",
    "007",
    "4294967295",
    "4294967296",
    "9223372036854775806",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775807",
    "-9223372036854775808",
    "-9223372036854775809",
    "18446744073709551614",
    "18446744073709551615",
    "18446744073709551616",
    "0x0",
    "0x1",
    "0X7F",
    "0x7fffffffffffffff",
    "0x8000000000000000",
    "0xffffffffffffffff",
    "0x10000000000000000",
    "0x",
    "-",
    "+",
    "",
};

/// What a numeral on a command line or in an attribute meets.
constexpr char kDecorations[] = {'+', '-', ' ', '\t', '\n', '\r', '\v', '\f',
                                 'x', '0'};

/// FNV-1a of ICSFUZZ_STRESS_SEED, or a fixed seed when it is unset.
std::uint64_t harness_seed() {
  const char* stress = std::getenv("ICSFUZZ_STRESS_SEED");
  if (stress == nullptr) return 0xC11F022;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char* c = stress; *c != '\0'; ++c) {
    hash = (hash ^ static_cast<std::uint8_t>(*c)) * 0x100000001b3ULL;
  }
  return hash;
}

/// from_chars over the whole of `text`: the value when it consumes every
/// byte, nothing otherwise.
template <typename T>
std::optional<T> whole(std::string_view text, int base = 10) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
  if (ec != std::errc{} || ptr != end || text.empty()) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> expected_u64(std::string_view text) {
  return whole<std::uint64_t>(trim(text));
}

std::optional<std::int64_t> expected_int(std::string_view text) {
  text = trim(text);
  if (!text.empty() && text.front() == '+') {
    text.remove_prefix(1);
    if (!text.empty() && text.front() == '-') return std::nullopt;
  }
  return whole<std::int64_t>(text);
}

std::optional<std::uint64_t> expected_uint(std::string_view text) {
  text = trim(text);
  if (starts_with(text, "0x") || starts_with(text, "0X")) {
    return whole<std::uint64_t>(text.substr(2), 16);
  }
  return whole<std::uint64_t>(text);
}

/// Printable form of a failing input: every byte escaped as \xNN.
std::string escaped(std::string_view text) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<std::uint8_t>(c);
    out += "\\x";
    out += kHex[byte >> 4];
    out += kHex[byte & 0xF];
  }
  return out;
}

/// Checks all three parsers on `text`; false (after reporting) on a
/// mismatch.
bool parsers_agree(std::string_view text, const std::string& label) {
  const std::string shown = label + " input=\"" + escaped(text) + "\"";
  const auto u64 = parse_u64(text);
  const auto u64_expected = expected_u64(text);
  EXPECT_EQ(u64, u64_expected) << "parse_u64 " << shown;
  const auto i64 = parse_int(text);
  const auto i64_expected = expected_int(text);
  EXPECT_EQ(i64, i64_expected) << "parse_int " << shown;
  const auto uint = parse_uint(text);
  const auto uint_expected = expected_uint(text);
  EXPECT_EQ(uint, uint_expected) << "parse_uint " << shown;
  return u64 == u64_expected && i64 == i64_expected && uint == uint_expected;
}

TEST(SelfFuzzCli, NumberParsersAcceptExactlyTheWholeTrimmedNumeral) {
  for (const char* seed : kSeeds) {
    ASSERT_TRUE(parsers_agree(seed, "seed"));
  }

  const std::uint64_t seed = harness_seed();
  const mutation::MutatorSuite mutators;
  Rng rng(seed);
  std::vector<Bytes> pool;
  for (const char* text : kSeeds) {
    pool.emplace_back(text, text + std::char_traits<char>::length(text));
  }
  std::size_t accepted_int = 0;
  std::size_t accepted_uint = 0;
  std::size_t rejected = 0;
  Bytes input;
  for (int round = 0; round < kRounds; ++round) {
    input = rng.pick(pool);
    const std::uint64_t stack = rng.between(1, 4);
    for (std::uint64_t i = 0; i < stack; ++i) {
      if (rng.chance(1, 3)) {
        const char c = kDecorations[rng.index(std::size(kDecorations))];
        input.insert(input.begin() + static_cast<std::ptrdiff_t>(
                                         rng.below(input.size() + 1)),
                     static_cast<std::uint8_t>(c));
      } else {
        mutators.mutate_in_place(input, rng);
      }
    }
    if (input.size() > 64) input.resize(rng.between(1, 64));
    if (rng.chance(1, 4) && pool.size() < kPoolCap) pool.push_back(input);

    const std::string_view text(reinterpret_cast<const char*>(input.data()),
                                input.size());
    ASSERT_TRUE(parsers_agree(text, "seed=" + std::to_string(seed) +
                                        " round=" + std::to_string(round)));
    if (parse_int(text).has_value()) ++accepted_int;
    if (parse_uint(text).has_value()) ++accepted_uint;
    if (!parse_int(text).has_value() && !parse_uint(text).has_value()) {
      ++rejected;
    }
  }
  // The mutated inputs must reach both sides of every parser's contract.
  EXPECT_GT(accepted_int, std::size_t{kRounds} / 100);
  EXPECT_GT(accepted_uint, std::size_t{kRounds} / 100);
  EXPECT_GT(rejected, std::size_t{kRounds} / 10);
}

}  // namespace
}  // namespace icsfuzz
