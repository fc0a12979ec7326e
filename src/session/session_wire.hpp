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
// The wake word lets the client block instead of polling. Every publish
// stores its counter first (release), then bumps the wake word (release)
// and issues FUTEX_WAKE on it. The client loads the wake word BEFORE it
// re-checks the counter and FUTEX_WAITs on the loaded value: a publish
// that lands between the check and the wait has already changed the word,
// so the kernel refuses the wait and no wake-up can be lost. The client
// waits in slices of at most kSyncWaitSliceMs and checks the server's
// liveness between slices, so a server that dies without publishing ends
// the wait within about one slice.
#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdint>

#include "exec_oop/exec_protocol.hpp"

namespace icsfuzz::session {

inline constexpr std::size_t kSyncOffset = oop::kSegmentBytes;
inline constexpr std::size_t kSyncBytes = 64;
inline constexpr std::size_t kTcpSegmentBytes = kSyncOffset + kSyncBytes;

/// Longest single futex wait of the client: the bound on how late it
/// notices a server that died without publishing.
inline constexpr int kSyncWaitSliceMs = 1;

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
inline std::uint32_t* wake_word(std::uint8_t* segment) {
  return reinterpret_cast<std::uint32_t*>(segment + kSyncOffset + 24);
}

/// Bumps the wake word and wakes every waiter. Not FUTEX_PRIVATE: client
/// and server are different processes mapping the same shm object.
inline void wake(std::uint8_t* segment) {
  std::uint32_t* word = wake_word(segment);
  std::atomic_ref<std::uint32_t>(*word).fetch_add(1,
                                                  std::memory_order_release);
  ::syscall(SYS_futex, word, FUTEX_WAKE, INT_MAX, nullptr, nullptr, 0);
}
}  // namespace wire_detail

/// CLOCK_MONOTONIC in milliseconds: the clock of sync_wait_counter's
/// deadline.
inline std::uint64_t monotonic_ms() {
  struct timespec ts {};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000;
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
  wire_detail::wake(segment);
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
  wire_detail::wake(segment);
}

inline std::uint64_t sync_load_sessions_done(std::uint8_t* segment) {
  return std::atomic_ref<std::uint64_t>(
             *reinterpret_cast<std::uint64_t*>(
                 wire_detail::sessions_addr(segment)))
      .load(std::memory_order_acquire);
}

/// Client side: the wake word, loaded before the counter it guards.
inline std::uint32_t sync_load_wake(std::uint8_t* segment) {
  return std::atomic_ref<std::uint32_t>(*wire_detail::wake_word(segment))
      .load(std::memory_order_acquire);
}

/// Client side: blocks until the wake word moves off `seen`, a signal
/// interrupts, or `timeout_ms` passes. Returns at once when the word has
/// already moved.
inline void sync_wait_wake(std::uint8_t* segment, std::uint32_t seen,
                           int timeout_ms) {
  const struct timespec timeout {
    timeout_ms / 1000, static_cast<long>(timeout_ms % 1000) * 1000000
  };
  ::syscall(SYS_futex, wire_detail::wake_word(segment), FUTEX_WAIT, seen,
            &timeout, nullptr, 0);
}

/// Client side: waits until `load()` (one of the sync counters) reaches
/// `expected`, or until CLOCK_MONOTONIC `deadline_ms` passes (0: no
/// deadline). A short busy-spin comes first: when client and server run
/// on different cores it catches a reply already on its way and saves the
/// futex round trip. Then the wait blocks on the wake word in
/// kSyncWaitSliceMs slices, calling
/// `peer_dead()` between them — a true result ends the wait. Returns
/// whether the counter arrived.
template <typename Load, typename PeerDead>
bool sync_wait_counter(std::uint8_t* segment, Load load,
                       std::uint64_t expected, std::uint64_t deadline_ms,
                       PeerDead peer_dead) {
  for (int spin = 0; spin < 4096; ++spin) {
    if (load() >= expected) return true;
  }
  for (;;) {
    const std::uint32_t seen = sync_load_wake(segment);
    if (load() >= expected) return true;
    if (peer_dead()) return false;
    std::uint64_t slice_ms = kSyncWaitSliceMs;
    if (deadline_ms != 0) {
      const std::uint64_t now = monotonic_ms();
      if (now >= deadline_ms) return load() >= expected;
      slice_ms = std::min(slice_ms, deadline_ms - now);
    }
    sync_wait_wake(segment, seen, static_cast<int>(slice_ms));
  }
}

}  // namespace icsfuzz::session
