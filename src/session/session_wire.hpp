// Shared-memory wire state of the TCP session transport.
//
// A session is an ordinary fork-server request (exec_oop/exec_protocol.hpp)
// that a session server serves itself instead of forking a child for it.
// The client creates the standard kSegmentBytesV2 segment and runs every
// session in slot kSessionSlot, with the slot's usual layout and rules:
//
//   +0                    raw edge-hit map — the server traces the whole
//                         session into it (one trace per session)
//   +kSlotAuxOffset       oop::AuxResult block, published at session end
//                         (events + faults; the response bytes travel over
//                         the socket, so the aux response stays empty)
//   +kSlotTestCaseOffset  the response-length log below (a session's
//                         packets travel over the socket, never here)
//   +kSlotDirtyListOffset the session's dirty-word list, adopted sparsely
//                         by the client (the full map scan when it is not
//                         published)
//
// The client posts the session before it connects and, after EOF, waits
// for the record's done; the server claims the request at accept and
// completes it before it closes the connection (tcp_server.hpp).
//
// The response-length log solves the one thing a raw protocol socket
// cannot: the client must know which reply bytes answer which message
// (these protocols answer with zero, one or several frames, so the reply
// stream carries no boundaries the client could trust). The client sends
// the whole session stream at once and reads the reply stream to EOF; the
// server logs the byte length of every response it writes, and the client
// splits what it read by that log once the session is done. Socket traffic
// therefore stays pure protocol bytes in both directions — nothing about
// the transport leaks into the fuzzed stream.
//
// Log layout, in the slot's test-case region:
//
//   +0   u32 response-length log count
//   +4   u32 response-length log, kResponseLogEntries entries
//
// The server writes the log during the session; the client reads it only
// after the record's done (release / acquire), and empties it when it
// posts the next session.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "exec_oop/exec_protocol.hpp"
#include "session/session_types.hpp"

namespace icsfuzz::session {

/// The slot every session runs in.
inline constexpr std::uint32_t kSessionSlot = 0;

/// Response-length log entries: one per message a session can carry (the
/// complete frames plus the residue).
inline constexpr std::size_t kResponseLogEntries = kMaxSessionMessages + 1;
static_assert(4 * (1 + kResponseLogEntries) <= oop::kSlotTestCaseBytes);

/// The response-length log of the slot at `slot`: [count][entries].
inline std::uint32_t* response_log_words(std::uint8_t* slot) {
  return reinterpret_cast<std::uint32_t*>(slot + oop::kSlotTestCaseOffset);
}

/// Client side: empties the response-length log (a new session is posted).
inline void response_log_reset(std::uint8_t* slot) {
  response_log_words(slot)[0] = 0;
}

/// Server side: logs one response write of `len` bytes. Writes past the
/// last entry fold into it, so the logged lengths always sum to the bytes
/// written.
inline void response_log_append(std::uint8_t* slot, std::uint32_t len) {
  std::uint32_t* words = response_log_words(slot);
  std::uint32_t& count = words[0];
  std::uint32_t* entries = words + 1;
  if (count < kResponseLogEntries) {
    entries[count++] = len;
  } else {
    entries[kResponseLogEntries - 1] += len;
  }
}

/// Client side: the response-length log of the session done in the slot.
/// Read it only after the session's handoff record says done.
inline std::span<const std::uint32_t> response_log(std::uint8_t* slot) {
  const std::uint32_t* words = response_log_words(slot);
  const std::size_t count =
      std::min<std::size_t>(words[0], kResponseLogEntries);
  return {words + 1, count};
}

}  // namespace icsfuzz::session
