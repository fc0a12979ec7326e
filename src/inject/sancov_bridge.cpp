// SanitizerCoverage → CoverageMap bridge of libicsfuzz-preload.so.
//
// A target built with `-fsanitize-coverage=trace-pc-guard` (clang, gcc 13+)
// or `-fsanitize-coverage=trace-pc` (gcc 12) calls these entry points on
// every instrumented edge. The bridge folds each hit into the same 64 KiB
// map geometry as the in-tree macro instrumentation — the paper's
//
//     shared_mem[cur ^ prev]++; prev = cur >> 1;
//
// scheme, with inject::mix_guard standing in for the compile-time random
// block id (guard indices are small sequential integers; raw return
// addresses cluster — both need mixing to spread across the map). The
// fuzzer side then runs its unchanged sparse adopt + analysis over the
// segment: nothing downstream knows the hits came from sancov.
//
// The symbols here resolve via ordinary dynamic lookup: the target binary
// links a no-op stub library (see demo/sancov_stubs.c) so it runs
// standalone, and LD_PRELOAD outranks DT_NEEDED dependencies, so under the
// runtime every hit lands here instead. Targets define nothing themselves
// — a definition inside the executable would win the lookup and the bridge
// would never see a hit.
#include "inject/runtime_state.hpp"

#include <cstdint>
#include <cstring>

#include "inject/inject_protocol.hpp"

namespace icsfuzz::inject_rt {

namespace {

// Plain zero-initialized members only (no DirtyWordList): the whole object
// must be constant-initialized — see the invariant in runtime_state.hpp.
struct TraceState {
  std::uint8_t* map = nullptr;
  std::uint32_t prev = 0;
  std::uint64_t events = 0;
  std::uint32_t dirty_count = 0;
  std::uint16_t dirty_indices[cov::kMapWords] = {};
};

thread_local TraceState g_trace;

// Module-load-time facts (guard_init runs before main, single-threaded).
std::uint32_t g_guard_total = 0;
bool g_sancov_seen = false;

/// One edge hit at (already masked) location `cur` — the cov::hit body
/// minus the TLS indirection the in-tree macro needs.
inline void record(std::uint32_t cur) {
  TraceState& trace = g_trace;
  std::uint8_t* mem = trace.map;
  if (mem == nullptr) return;
  ++trace.events;
  const std::uint32_t index = cur ^ trace.prev;
  std::uint64_t word;
  std::memcpy(&word, mem + (index & ~std::uint32_t{7}), sizeof(word));
  if (word == 0) {
    trace.dirty_indices[trace.dirty_count++] =
        static_cast<std::uint16_t>(index >> 3);
  }
  std::uint8_t& cell = mem[index];
  if (cell != 0xFF) ++cell;  // saturate: loops must not alias empty cells
  trace.prev = cur >> 1;
}

}  // namespace

void trace_arm(std::uint8_t* map) {
  TraceState& trace = g_trace;
  trace.map = map;
  trace.prev = 0;
  trace.events = 0;
  trace.dirty_count = 0;
}

void trace_disarm() { g_trace.map = nullptr; }

bool trace_armed() { return g_trace.map != nullptr; }

std::uint64_t trace_events() { return g_trace.events; }

std::uint32_t trace_dirty_count() { return g_trace.dirty_count; }

const std::uint16_t* trace_dirty_indices() { return g_trace.dirty_indices; }

std::uint32_t guard_total() { return g_guard_total; }

bool sancov_seen() { return g_sancov_seen; }

}  // namespace icsfuzz::inject_rt

// -- SanitizerCoverage entry points (C ABI, default visibility). -----------

extern "C" {

/// trace-pc-guard flavor: called once per instrumented module load with
/// its guard table; guards get small sequential nonzero ids. Re-entry for
/// an already-numbered table is a no-op (the compiler may call this more
/// than once per module).
void __sanitizer_cov_trace_pc_guard_init(std::uint32_t* start,
                                         std::uint32_t* stop) {
  using namespace icsfuzz::inject_rt;
  g_sancov_seen = true;
  if (start == stop || *start != 0) return;
  for (std::uint32_t* guard = start; guard != stop; ++guard) {
    *guard = ++g_guard_total;
  }
}

/// trace-pc-guard flavor: one edge hit, identified by the guard's id.
void __sanitizer_cov_trace_pc_guard(std::uint32_t* guard) {
  const std::uint32_t id = *guard;
  if (id == 0) return;  // guard table not initialized: discard
  icsfuzz::inject_rt::record(icsfuzz::inject::mix_guard(id) &
                             (icsfuzz::cov::kMapSize - 1));
}

/// trace-pc flavor (gcc 12): no guard table, the edge identity is the call
/// site's return address. Fold the 64-bit pc down and mix — consecutive
/// sites differ by a few bytes, so without mixing they would collide into
/// neighboring cells.
void __sanitizer_cov_trace_pc(void) {
  using namespace icsfuzz::inject_rt;
  if (!g_sancov_seen) g_sancov_seen = true;
  const auto pc =
      reinterpret_cast<std::uintptr_t>(__builtin_return_address(0));
  const auto id =
      static_cast<std::uint32_t>(pc ^ (static_cast<std::uint64_t>(pc) >> 32));
  record(icsfuzz::inject::mix_guard(id) & (icsfuzz::cov::kMapSize - 1));
}

}  // extern "C"
