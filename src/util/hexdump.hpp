// Human-readable byte rendering for crash reports, examples and logging.
#pragma once

#include <string>

#include "util/bytes.hpp"

namespace icsfuzz {

/// Compact lowercase hex string, e.g. "0001fa".
std::string to_hex(ByteSpan data);

/// Writes the compact lowercase hex of `data` (2 * data.size() chars) at
/// `dest` — in-place encoding for callers that size their output once.
void write_hex(ByteSpan data, char* dest);

/// Decodes `hex` (exactly two digits per byte, no whitespace) into `dest`,
/// which must hold hex.size() / 2 bytes. Returns false on an odd length or
/// a non-hex digit.
bool read_hex(std::string_view hex, std::uint8_t* dest);

/// Parses a compact hex string; ignores whitespace. Returns empty on any
/// non-hex character or odd digit count.
Bytes from_hex(std::string_view hex);

/// Classic 16-bytes-per-row dump with offsets and ASCII gutter.
std::string hexdump(ByteSpan data);

}  // namespace icsfuzz
