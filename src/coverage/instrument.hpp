// Lightweight edge-coverage instrumentation.
//
// The paper's Peach*-clang wraps clang with an LLVM pass that injects, at
// every branch point of the protocol program:
//
//     cur_location = <COMPILE_TIME_RANDOM>;
//     shared_mem[cur_location ^ prev_location]++;
//     prev_location = cur_location >> 1;
//
// This repository reproduces the identical runtime semantics, but the
// injection vehicle is a macro (`ICSFUZZ_COV_BLOCK()`) placed in the basic
// blocks of the re-implemented protocol stacks. The "compile-time random"
// block id is an FNV-1a hash of file/line/counter, which has the same
// statistical properties as the pass's random constant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace icsfuzz::cov {

/// Size of the shared edge map; same 64 KiB default as AFL / the paper.
inline constexpr std::size_t kMapSize = 1 << 16;

/// Number of 64-bit words in the edge map.
inline constexpr std::size_t kMapWords = kMapSize / sizeof(std::uint64_t);

/// Sparse-trace bookkeeping: the index of every 64-bit map word that went
/// nonzero during the current execution, in first-touch order. A typical
/// trace dirties a few hundred of the 8192 words, so clearing and analysing
/// only the dirty words replaces every full 64 KiB map pass with an O(touched)
/// sweep — the hot-path optimisation the whole coverage layer is built on.
///
/// Capacity never overflows: a word is appended only on its 0 -> nonzero
/// transition, counters saturate (never return to zero) while armed, so each
/// word appears at most once per arming.
struct DirtyWordList {
  std::uint32_t count = 0;
  std::uint16_t indices[kMapWords];
};

// The four trace variables below are constinit here and at their
// definitions: with no dynamic initialiser possible, the compiler reads them
// as plain TLS loads instead of calling its TLS init wrapper on every access.

/// The "shared memory" edge-hit array for the currently executing target.
/// Owned by the active CoverageMap (coverage_map.hpp); null when no
/// execution is being traced, in which case hits are dropped.
extern constinit thread_local std::uint8_t* tls_shared_mem;

/// prev_location from the paper's instrumentation snippet.
extern constinit thread_local std::uint32_t tls_prev_location;

/// Total instrumentation events in the current execution; the executor uses
/// this as a deterministic "time" budget for hang detection.
extern constinit thread_local std::uint64_t tls_event_count;

/// Dirty-word list of the currently armed trace. Invariant: non-null
/// whenever tls_shared_mem is non-null (begin_trace installs a per-thread
/// fallback when the caller does not supply one), so hit() never branches
/// on it.
extern constinit thread_local DirtyWordList* tls_dirty_words;

/// Records a transition into the basic block identified by `block_id`.
inline void hit(std::uint32_t block_id) {
  ++tls_event_count;
  std::uint8_t* mem = tls_shared_mem;
  if (mem == nullptr) return;
  const std::uint32_t cur_location = block_id & (kMapSize - 1);
  const std::uint32_t index = cur_location ^ tls_prev_location;
  // Dirty-word bookkeeping: the containing 64-bit word shares the cell's
  // cache line, so this is one extra load + compare on the hot path; the
  // append itself runs once per word per execution.
  std::uint64_t word;
  std::memcpy(&word, mem + (index & ~std::uint32_t{7}), sizeof(word));
  if (word == 0) {
    DirtyWordList* dirty = tls_dirty_words;
    dirty->indices[dirty->count++] = static_cast<std::uint16_t>(index >> 3);
  }
  std::uint8_t& cell = mem[index];
  // Saturating increment: a wrapped counter would make a 256-iteration loop
  // look identical to a straight-line block.
  if (cell != 0xFF) ++cell;
  tls_prev_location = cur_location >> 1;
}

/// Arms tracing for this thread: hits go to `map` (kMapSize bytes).
///
/// All arming state is thread_local, so each worker thread of a parallel
/// campaign traces into its own CoverageMap with no synchronization: arming
/// on one thread never observes or disturbs another thread's trace. The map
/// pointer must stay valid until the matching end_trace() on the same
/// thread, and target code must run on the thread that armed it.
///
/// Dirty-word tracking uses a per-thread fallback list (reset by this call);
/// callers that want to *read* the dirty list pass their own via the
/// two-argument overload.
void begin_trace(std::uint8_t* map);

/// Arms tracing with a caller-owned dirty-word list (not reset: the caller
/// decides which words are already dirty). `hit` appends the index of every
/// map word whose first nonzero transition it causes; for the appended list
/// to be the complete set of nonzero words, every word NOT already listed in
/// `dirty` must be zero when tracing starts. Both `map` and `dirty` must
/// outlive the matching end_trace().
void begin_trace(std::uint8_t* map, DirtyWordList* dirty);

/// Disarms tracing and resets prev_location / the event counter.
void end_trace();

/// True while this thread has tracing armed (diagnostics; lets an executor
/// assert it is not re-entering another execution on the same thread).
[[nodiscard]] bool trace_armed();

/// Compile-time FNV-1a over file/line/counter — the macro's block id.
constexpr std::uint32_t fnv1a(const char* text, std::uint32_t seed) {
  std::uint32_t hash = 2166136261U ^ seed;
  for (const char* p = text; *p != '\0'; ++p) {
    hash ^= static_cast<std::uint8_t>(*p);
    hash *= 16777619U;
  }
  return hash;
}

}  // namespace icsfuzz::cov

/// Marks one basic block of target code. Each textual occurrence gets a
/// distinct compile-time id, mirroring the paper's <COMPILE_TIME_RANDOM>.
#define ICSFUZZ_COV_BLOCK()                                                  \
  ::icsfuzz::cov::hit(::icsfuzz::cov::fnv1a(                                 \
      __FILE__, static_cast<std::uint32_t>(__LINE__ * 977u + __COUNTER__)))

/// Marks a block with an explicit stable id (used by tests).
#define ICSFUZZ_COV_BLOCK_ID(id) ::icsfuzz::cov::hit((id))
