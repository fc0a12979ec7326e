// Process-shared futex wake words: the one blocking wait of every
// out-of-process transport that hands work across shared memory — the
// fork-server handoff (exec_protocol.hpp) and the TCP session
// sync block (session/session_wire.hpp).
//
// A wake word is a u32 in a shared mapping. Every publisher stores its
// payload first (release), then bumps the word and issues FUTEX_WAKE on
// it. A waiter loads the word BEFORE it re-checks the payload
// and FUTEX_WAITs on the loaded value: a publish that lands between the
// check and the wait has already changed the word, so the kernel refuses
// the wait and no wake-up can be lost. Not FUTEX_PRIVATE: the peers are
// different processes mapping the same shm object.
#pragma once

#include <linux/futex.h>
#include <sched.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdint>

namespace icsfuzz::oop {

/// Longest single futex wait of sync_wait_counter: the bound on how late a
/// waiter notices a peer that died without publishing. A peer that
/// publishes (including a shim reporting a child's death) wakes the waiter
/// at once, so the slice only matters for silent deaths. It is kept above
/// one scheduler tick at every common HZ (100-1000): a timeout that expires
/// before the next tick makes every wait arm and cancel a high-resolution
/// timer, which on a virtualised clock-event device costs microseconds per
/// round trip.
inline constexpr int kSyncWaitSliceMs = 20;

/// CLOCK_MONOTONIC in milliseconds: the clock of sync_wait_counter's
/// deadline.
inline std::uint64_t monotonic_ms() {
  struct timespec ts {};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000;
}

/// The wake word's current value, loaded before the payload it guards.
inline std::uint32_t load_wake(std::uint32_t* word) {
  return std::atomic_ref<std::uint32_t>(*word).load(std::memory_order_acquire);
}

/// Bumps the wake word and wakes every waiter. The bump is sequentially
/// consistent, so a publisher that reads a peer's word after it pairs with
/// a peer doing the same in the other order (the handoff's fork check).
inline void bump_wake(std::uint32_t* word) {
  std::atomic_ref<std::uint32_t>(*word).fetch_add(1);
  ::syscall(SYS_futex, word, FUTEX_WAKE, INT_MAX, nullptr, nullptr, 0);
}

/// bump_wake for a word whose sleeper announces itself in `waiting`
/// (sync_wait_counter's `waiting`, SlotLifecycle::begin): the FUTEX_WAKE
/// is issued only when the announcement is up, and takes it down, so a
/// publisher whose peer is busy — or already woken and not yet running —
/// skips the syscall. The announcement is a sequentially consistent store
/// before the sleeper re-reads the word, and the bump a sequentially
/// consistent RMW before this load, so either the sleeper sees the bump or
/// this sees the announcement.
inline void bump_wake_waiter(std::uint32_t* word, std::uint32_t* waiting) {
  std::atomic_ref<std::uint32_t>(*word).fetch_add(1);
  std::atomic_ref<std::uint32_t> announced(*waiting);
  if (announced.load() != 0 && announced.exchange(0) != 0) {
    ::syscall(SYS_futex, word, FUTEX_WAKE, INT_MAX, nullptr, nullptr, 0);
  }
}

/// Blocks until the word moves off `seen`, a signal interrupts, or
/// `timeout_ms` passes (negative: no timeout). Returns at once when the word
/// has already moved.
inline void wait_wake(std::uint32_t* word, std::uint32_t seen,
                      int timeout_ms) {
  const struct timespec timeout {
    timeout_ms / 1000, static_cast<long>(timeout_ms % 1000) * 1000000
  };
  ::syscall(SYS_futex, word, FUTEX_WAIT, seen,
            timeout_ms < 0 ? nullptr : &timeout, nullptr, 0);
}

/// True when the calling thread's affinity mask lets it and a peer run at
/// the same time (more than one allowed CPU) — the only case in which
/// spinning before blocking can catch a reply already on its way. Bound to
/// one CPU, a spin only delays the peer it waits for.
inline bool affinity_allows_spin() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return false;
  return CPU_COUNT(&set) > 1;
}

/// Waits until `load()` reaches `expected`, or until CLOCK_MONOTONIC
/// `deadline_ms` passes (0: no deadline). With `spin` (see
/// affinity_allows_spin) a short busy-spin comes first. Then the wait
/// blocks on `wake` in kSyncWaitSliceMs slices. Whenever a slice ends
/// without a publish it calls `peer_dead()` — a true result ends the wait —
/// so a peer that keeps publishing costs no liveness check at all. With
/// `waiting` the wait announces itself there before it sleeps, for a
/// publisher using bump_wake_waiter. Returns whether the counter arrived.
template <typename Load, typename PeerDead>
bool sync_wait_counter(std::uint32_t* wake, Load load, std::uint64_t expected,
                       std::uint64_t deadline_ms, PeerDead peer_dead,
                       bool spin, std::uint32_t* waiting = nullptr) {
  if (spin) {
    for (int i = 0; i < 4096; ++i) {
      if (load() >= expected) return true;
    }
  }
  bool stalled = false;
  for (;;) {
    std::uint32_t seen = load_wake(wake);
    if (load() >= expected) return true;
    if (waiting != nullptr) {
      // An announcement left up after the wait costs the next publisher
      // one needless wake, which takes it down.
      std::atomic_ref<std::uint32_t>(*waiting).store(1);
      seen = std::atomic_ref<std::uint32_t>(*wake).load();
      if (load() >= expected) return true;
    }
    if (stalled && peer_dead()) return false;
    std::uint64_t slice_ms = kSyncWaitSliceMs;
    if (deadline_ms != 0) {
      const std::uint64_t now = monotonic_ms();
      if (now >= deadline_ms) return load() >= expected;
      slice_ms = std::min(slice_ms, deadline_ms - now);
    }
    wait_wake(wake, seen, static_cast<int>(slice_ms));
    stalled = load_wake(wake) == seen;
  }
}

}  // namespace icsfuzz::oop
