// Internal seam between the preload runtime (preload_runtime.cpp) and the
// SanitizerCoverage bridge (sancov_bridge.cpp) inside libicsfuzz-preload.so.
// Nothing outside the shared object includes this header.
//
// The bridge owns the trace window: an armed map pointer, the paper's
// prev_location chain, the event counter and the sparse dirty-word list.
// The runtime arms a window around each execution (fork child, persistent
// iteration, or TCP session) and harvests events + dirty words when it
// closes. State is thread_local with the same contract as
// coverage/instrument.hpp: the thread that arms is the thread whose hits
// are traced, so a multi-threaded target only contributes coverage from
// the arming thread (documented in docs/INJECTION.md).
//
// INVARIANT — constant initialization only. Every object with static (or
// thread) storage duration in this shared object must be
// constant-initialized: in fork mode the runtime's constructor never
// returns in the server process, so the library's remaining init-array
// entries run INSIDE each forked child, after the child already mutated
// runtime state. A dynamic initializer (any non-constexpr default
// constructor, e.g. cov::DirtyWordList's) would re-run there and silently
// wipe that state — which is why this seam traffics in plain zeroable
// arrays instead of DirtyWordList.
#pragma once

#include <cstdint>

#include "coverage/instrument.hpp"

namespace icsfuzz::inject_rt {

/// Arms tracing into `map` (cov::kMapSize bytes): resets prev_location,
/// the event counter and the dirty list. Every word of `map` not already
/// nonzero must be zero (the runtime memsets or sparse-clears first), so
/// the dirty list stays the exact set of nonzero words.
void trace_arm(std::uint8_t* map);

/// Disarms tracing; subsequent sancov hits are dropped (not counted).
void trace_disarm();

/// True while this thread has a trace window armed.
[[nodiscard]] bool trace_armed();

/// Instrumentation events recorded since the last trace_arm.
[[nodiscard]] std::uint64_t trace_events();

/// The armed window's dirty-word list (indices of map words that went
/// nonzero): `trace_dirty_indices()[0 .. trace_dirty_count())`. Valid
/// between trace_arm and the next trace_arm on this thread; the runtime
/// publishes it with each result (the client adopts the trace from it) and
/// copies it into per-slot storage for the sparse clears between
/// persistent iterations.
[[nodiscard]] std::uint32_t trace_dirty_count();
[[nodiscard]] const std::uint16_t* trace_dirty_indices();

/// Total trace-pc-guard guards registered by module initializers (0 for
/// the gcc trace-pc flavor, which has no guard table).
[[nodiscard]] std::uint32_t guard_total();

/// True once any sancov entry point has been invoked — distinguishes an
/// instrumented target from one whose map will always stay empty.
[[nodiscard]] bool sancov_seen();

}  // namespace icsfuzz::inject_rt
