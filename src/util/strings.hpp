// Small string helpers used by the pit parser and report emitters.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace icsfuzz {

/// Splits on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// Case-sensitive prefix/suffix tests.
bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Lowercases ASCII.
std::string to_lower(std::string_view text);

/// Parses a decimal or 0x-prefixed hex unsigned integer; a value that does
/// not fit in 64 bits is rejected.
std::optional<std::uint64_t> parse_uint(std::string_view text);

/// Strict checked parse of a decimal unsigned integer for CLI/env input:
/// the whole (trimmed) string must be digits and the value must fit in 64
/// bits — "12abc", "", "-3" and overflowing values are all rejected, unlike
/// atoi/strtoull which silently return 0 or saturate. On failure `error`
/// (when non-null) receives a human-readable reason mentioning `what`.
std::optional<std::uint64_t> parse_u64(std::string_view text,
                                       std::string_view what = "value",
                                       std::string* error = nullptr);

/// Strict checked parse of a decimal signed integer (optional leading '-'),
/// same contract as parse_u64.
std::optional<std::int64_t> parse_int(std::string_view text,
                                      std::string_view what = "value",
                                      std::string* error = nullptr);

/// Parses a boolean: "true"/"false"/"1"/"0" (case-insensitive).
std::optional<bool> parse_bool(std::string_view text);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

}  // namespace icsfuzz
