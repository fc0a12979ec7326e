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
//   [kSyncOffset, +64)   the sync block below
//
// The sync block solves the one thing a raw protocol socket cannot: the
// client must know when message i's response is COMPLETE (these protocols
// answer with zero, one or several frames — "no more bytes yet" and "no
// response" are indistinguishable on the wire). The server publishes a
// monotonic served-message counter and the byte length of the last
// response; the client sends message i, waits for served == i+1, then
// reads exactly last_response_len bytes. Socket traffic therefore stays
// pure protocol bytes in both directions — nothing about the transport
// leaks into the fuzzed stream. Counters are campaign-monotonic (never
// reset per session) so a stale read from a previous session can never be
// mistaken for this one's progress.
//
// Sync block layout:
//
//   +0   u64 served-message counter
//   +8   u64 completed-session counter
//   +16  u32 byte length of the last response
//   +24  u32 wake word (process-shared futex)
//
// The wake word lets the client block instead of polling: every publish
// bumps it after storing its counter, and the client waits on it through
// oop::sync_wait_counter (exec_oop/wake_word.hpp documents the protocol).
#pragma once

#include <atomic>
#include <cstdint>

#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/wake_word.hpp"

namespace icsfuzz::session {

/// The aux block follows the map: the server publishes one per session.
inline constexpr std::size_t kAuxOffset = cov::kMapSize;
inline constexpr std::size_t kSyncOffset = kAuxOffset + oop::kAuxBytes;
inline constexpr std::size_t kSyncBytes = 64;
inline constexpr std::size_t kTcpSegmentBytes = kSyncOffset + kSyncBytes;

namespace wire_detail {
inline std::uint8_t* served_addr(std::uint8_t* segment) {
  return segment + kSyncOffset;
}
inline std::uint8_t* sessions_addr(std::uint8_t* segment) {
  return segment + kSyncOffset + 8;
}
inline std::uint8_t* response_len_addr(std::uint8_t* segment) {
  return segment + kSyncOffset + 16;
}
}  // namespace wire_detail

/// The sync block's wake word (exec_oop/wake_word.hpp).
inline std::uint32_t* sync_wake_word(std::uint8_t* segment) {
  return reinterpret_cast<std::uint32_t*>(segment + kSyncOffset + 24);
}

/// Server side: publishes "message done" — the response length first, the
/// served count last (release), so a client that observes the new count
/// also observes the matching length. Then wakes the client.
inline void sync_publish_served(std::uint8_t* segment, std::uint64_t served,
                                std::uint32_t response_len) {
  std::atomic_ref<std::uint32_t>(
      *reinterpret_cast<std::uint32_t*>(wire_detail::response_len_addr(segment)))
      .store(response_len, std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t>(
      *reinterpret_cast<std::uint64_t*>(wire_detail::served_addr(segment)))
      .store(served, std::memory_order_release);
  oop::bump_wake(sync_wake_word(segment));
}

inline std::uint64_t sync_load_served(std::uint8_t* segment) {
  return std::atomic_ref<std::uint64_t>(
             *reinterpret_cast<std::uint64_t*>(wire_detail::served_addr(segment)))
      .load(std::memory_order_acquire);
}

inline std::uint32_t sync_load_response_len(std::uint8_t* segment) {
  return std::atomic_ref<std::uint32_t>(
             *reinterpret_cast<std::uint32_t*>(
                 wire_detail::response_len_addr(segment)))
      .load(std::memory_order_relaxed);
}

/// Server side: publishes "session done" (map + aux block fully written),
/// then wakes the client.
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
