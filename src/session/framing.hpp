// Per-protocol message framing: the single source of truth for where one
// session message ends and the next begins.
//
// split_stream is the one split of a session stream into messages: the
// kTcp client, the in-process session backend, the sequencer and the
// shim's TCP server (which reads a session to EOF before it splits it)
// all run it, and its rules mirror each target server's own
// process_into() drain loop exactly. The in-process vs over-TCP
// differential oracle therefore splits the same stream with the same code
// on both arms.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "session/session_types.hpp"
#include "util/bytes.hpp"

namespace icsfuzz::session {

/// Framing for a registry project name (target_registry.cpp); kNone for an
/// unknown project.
Framing framing_for_project(std::string_view project);

/// What the header bytes at the front of a stream say.
enum class Peek : std::uint8_t {
  kNeedMore,   ///< not enough bytes yet to finish a frame
  kFrame,      ///< a complete frame of `size` bytes is available
  kMalformed,  ///< the header can never form a frame (the servers' drain
               ///< loops stop the stream here)
};

/// Examines the front of `data` (length `size`) and reports whether a
/// complete frame is available. On kFrame, `frame_size` is its byte length.
/// The per-variant rules are byte-for-byte those of the servers' drain
/// loops:
///   kApci     — need 2;  frame = 2 + b[1]                (never malformed)
///   kMbap     — need 7;  declared = BE16 b[4..5]; frame = 6 + declared;
///               declared < 1 is malformed
///   kTpkt     — need 4;  frame = BE16 b[2..3]; frame < 4 is malformed
///   kDnp3Link — need 10; declared = b[2]; declared < 5 is malformed;
///               user = declared - 5; frame = 10 + user + 2*ceil(user/16)
///   kNone     — the whole stream is one frame once non-empty
Peek peek_frame(Framing framing, const std::uint8_t* data, std::size_t size,
                std::size_t& frame_size);

/// One message's position inside a session stream.
struct MessageRange {
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// Total session-stream bytes either side will ever consider: split_stream
/// ignores bytes past this, the client never sends them and the TCP
/// server drains them unread (bounds adversarial streams without
/// desynchronizing the arms).
inline constexpr std::size_t kMaxSessionStreamBytes = std::size_t{1} << 20;

/// Splits `stream` into its canonical message list: complete frames first
/// (at most kMaxSessionMessages), then — when the remainder is non-empty —
/// one residue message covering everything from the first incomplete or
/// malformed header (or the message-cap point) to the end of the considered
/// prefix. Returns the index of the residue entry in `out`, or
/// `out.size()` when every message is a complete frame. `out` is cleared
/// first.
std::size_t split_stream(Framing framing, ByteSpan stream,
                         std::vector<MessageRange>& out);

}  // namespace icsfuzz::session
