// Human-readable byte rendering for crash reports, examples and logging.
#pragma once

#include <string>

#include "util/bytes.hpp"

namespace icsfuzz {

/// Compact lowercase hex string, e.g. "0001fa".
std::string to_hex(ByteSpan data);

/// Parses a compact hex string; ignores whitespace. Returns empty on any
/// non-hex character or odd digit count.
Bytes from_hex(std::string_view hex);

/// Classic 16-bytes-per-row dump with offsets and ASCII gutter.
std::string hexdump(ByteSpan data);

}  // namespace icsfuzz
