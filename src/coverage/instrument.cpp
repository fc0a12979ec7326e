#include "coverage/instrument.hpp"

namespace icsfuzz::cov {

constinit thread_local std::uint8_t* tls_shared_mem = nullptr;
constinit thread_local std::uint32_t tls_prev_location = 0;
constinit thread_local std::uint64_t tls_event_count = 0;
constinit thread_local DirtyWordList* tls_dirty_words = nullptr;

namespace {

/// Sink for callers of the one-argument begin_trace (tests, ad-hoc raw-map
/// tracing): hit() needs *somewhere* to append so its hot path stays
/// branch-free on the dirty pointer. Bounded by construction — each word is
/// appended at most once per arming — and reset on every arm.
thread_local DirtyWordList tls_fallback_dirty;

}  // namespace

void begin_trace(std::uint8_t* map) {
  tls_fallback_dirty.count = 0;
  begin_trace(map, &tls_fallback_dirty);
}

void begin_trace(std::uint8_t* map, DirtyWordList* dirty) {
  tls_shared_mem = map;
  tls_dirty_words = dirty;
  tls_prev_location = 0;
  tls_event_count = 0;
}

void end_trace() {
  tls_shared_mem = nullptr;
  tls_dirty_words = nullptr;
  tls_prev_location = 0;
}

bool trace_armed() { return tls_shared_mem != nullptr; }

}  // namespace icsfuzz::cov
