// Shared-memory wire state of the TCP session transport.
//
// Segment geometry (one ShmSegment of kTcpSegmentBytes, created by the
// client backend and attached by the `icsfuzz-shim-target --tcp` server
// through the usual ICSFUZZ_OOP_SHM environment pair):
//
//   [0, cov::kMapSize)   raw edge-hit map — the server traces every
//                        session into it (one trace per session)
//   [kAuxOffset, ...)    oop::AuxResult block, published at session end
//                        (events + faults; the response bytes travel over
//                        the socket, so the aux response stays empty)
//   [kDirtyListOffset, ...)  the session's dirty-word list, in the shape
//                        and with the validity rule of a fork-server
//                        slot's (exec_oop/exec_protocol.hpp): invalidated
//                        with the aux magic before the server touches the
//                        map, written before the magic at session end. The
//                        client adopts the trace sparsely from it and
//                        falls back to the full map scan when it is not
//                        published
//   [kSyncOffset, ...)   the sync block below
//
// The sync block solves the one thing a raw protocol socket cannot: the
// client must know which reply bytes answer which message (these
// protocols answer with zero, one or several frames, so the reply stream
// carries no boundaries the client could trust). The client sends the
// whole session stream at once and reads the reply stream to EOF; the
// server logs the byte length of every response it writes, and the client
// splits what it read by that log once the session is done. Socket traffic
// therefore stays pure protocol bytes in both directions — nothing about
// the transport leaks into the fuzzed stream. The session counter is
// campaign-monotonic (never reset per session) so a stale read from a
// previous session can never be mistaken for this one's completion.
//
// Sync block layout:
//
//   +0   u64 completed-session counter
//   +8   u32 wake word (process-shared futex)
//   +12  u32 response-length log count
//   +16  u32 response-length log, kResponseLogEntries entries
//
// The log is written by the server during the session and read by the
// client only after the session counter has moved (release / acquire), and
// the server empties it only when the next connection arrives — which the
// client opens after it has read the log. The wake word lets the client
// block instead of polling: the session-done publish bumps it after storing
// the counter, and the client waits on it through oop::sync_wait_counter
// (exec_oop/wake_word.hpp documents the protocol).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>

#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/wake_word.hpp"
#include "session/session_types.hpp"

namespace icsfuzz::session {

/// Response-length log entries: one per message a session can carry (the
/// complete frames plus the residue).
inline constexpr std::size_t kResponseLogEntries = kMaxSessionMessages + 1;

/// The aux block follows the map: the server publishes one per session.
inline constexpr std::size_t kAuxOffset = cov::kMapSize;
inline constexpr std::size_t kDirtyListOffset = kAuxOffset + oop::kAuxBytes;
inline constexpr std::size_t kSyncOffset =
    kDirtyListOffset + oop::kDirtyListBytes;
inline constexpr std::size_t kSyncBytes = 16 + 4 * kResponseLogEntries;
inline constexpr std::size_t kTcpSegmentBytes = kSyncOffset + kSyncBytes;

namespace wire_detail {
inline std::uint8_t* sessions_addr(std::uint8_t* segment) {
  return segment + kSyncOffset;
}
inline std::uint32_t* log_count(std::uint8_t* segment) {
  return reinterpret_cast<std::uint32_t*>(segment + kSyncOffset + 12);
}
inline std::uint32_t* log_entries(std::uint8_t* segment) {
  return reinterpret_cast<std::uint32_t*>(segment + kSyncOffset + 16);
}
}  // namespace wire_detail

/// The sync block's wake word (exec_oop/wake_word.hpp).
inline std::uint32_t* sync_wake_word(std::uint8_t* segment) {
  return reinterpret_cast<std::uint32_t*>(segment + kSyncOffset + 8);
}

/// Server side: empties the response-length log (a new session starts).
inline void sync_log_reset(std::uint8_t* segment) {
  *wire_detail::log_count(segment) = 0;
}

/// Server side: logs one response write of `len` bytes. Writes past the
/// last entry fold into it, so the logged lengths always sum to the bytes
/// written.
inline void sync_log_append(std::uint8_t* segment, std::uint32_t len) {
  std::uint32_t& count = *wire_detail::log_count(segment);
  std::uint32_t* entries = wire_detail::log_entries(segment);
  if (count < kResponseLogEntries) {
    entries[count++] = len;
  } else {
    entries[kResponseLogEntries - 1] += len;
  }
}

/// Client side: the response-length log of the last completed session.
/// Read it only after sync_load_sessions_done has reached that session.
inline std::span<const std::uint32_t> sync_response_log(
    std::uint8_t* segment) {
  const std::size_t count = std::min<std::size_t>(
      *wire_detail::log_count(segment), kResponseLogEntries);
  return {wire_detail::log_entries(segment), count};
}

/// Server side: publishes "session done" (map, dirty-word list, aux block
/// and response log fully written), then wakes the client.
inline void sync_publish_session_done(std::uint8_t* segment,
                                      std::uint64_t sessions) {
  std::atomic_ref<std::uint64_t>(
      *reinterpret_cast<std::uint64_t*>(wire_detail::sessions_addr(segment)))
      .store(sessions, std::memory_order_release);
  oop::bump_wake(sync_wake_word(segment));
}

inline std::uint64_t sync_load_sessions_done(std::uint8_t* segment) {
  return std::atomic_ref<std::uint64_t>(
             *reinterpret_cast<std::uint64_t*>(
                 wire_detail::sessions_addr(segment)))
      .load(std::memory_order_acquire);
}

}  // namespace icsfuzz::session
