// Coverage analysis kernels: the per-cell work of the hot loops behind one
// dispatch table.
//
// The sparse dirty-word path removed every full-map sweep from the
// execution path; what remained on the profile was the per-cell work *inside*
// each dirty word (8 bucket-table lookups + a nonzero scan + a hash mix per
// cell) and the full 8192-word sweep of worker-to-exchange merges. A kernel
// is one implementation of that work. CoverageMap::use_kernel (and
// ExecutorConfig::coverage_kernel, which feeds it) is the one place a kernel
// is chosen:
//
//   * kAuto   — best_kernel(): AVX2 when the CPU has it (probed once via
//               __builtin_cpu_supports; the kernel is compiled into every
//               x86-64 build through the GCC/Clang `target("avx2")`
//               attribute), otherwise scalar. The default.
//   * kScalar — the portable fused loop, always available; the reference
//               every other kernel must match bit for bit.
//   * kAVX2   — byte-wide compare / min-max / blend over four map words per
//               register.
//   * kDense  — the full-map reference oracle (coverage/dense_ref.hpp):
//               CoverageMap runs begin/finalize as a full memset plus the
//               dense whole-map sweeps; merges and adoption use the scalar
//               table.
//
// Every kernel is bit-identical to the scalar reference: same classified
// bytes, same commutative (sum, xor) hash accumulators, same edge counts,
// same accumulated maps, same dirty-superset append order. The equivalence
// suite (tests/test_coverage_sparse.cpp) drives every runnable kernel against
// scalar and against the dense reference.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "coverage/instrument.hpp"

namespace icsfuzz::cov::simd {

/// Kernel identities (see the file comment).
enum class Kernel : std::uint8_t {
  kAuto = 0,  ///< "best available" — resolved by ops_for()/best_kernel()
  kScalar,
  kAVX2,
  kDense,
};

/// AFL bucket table: raw hit count -> bucket bitmask. Shared by the scalar
/// kernel, classify_count() and the dense reference so every implementation
/// classifies identically.
constexpr std::array<std::uint8_t, 256> make_bucket_table() {
  std::array<std::uint8_t, 256> table{};
  table[0] = 0;
  table[1] = 1;
  table[2] = 2;
  table[3] = 4;
  for (int i = 4; i <= 7; ++i) table[static_cast<std::size_t>(i)] = 8;
  for (int i = 8; i <= 15; ++i) table[static_cast<std::size_t>(i)] = 16;
  for (int i = 16; i <= 31; ++i) table[static_cast<std::size_t>(i)] = 32;
  for (int i = 32; i <= 127; ++i) table[static_cast<std::size_t>(i)] = 64;
  for (int i = 128; i <= 255; ++i) table[static_cast<std::size_t>(i)] = 128;
  return table;
}

inline constexpr std::array<std::uint8_t, 256> kBucketTable =
    make_bucket_table();

/// Number of bytes that are zero in `before` but nonzero in `after` — the
/// cells a virgin-map OR newly covered (feeds the O(1) edges_covered()).
inline std::size_t newly_nonzero_bytes(std::uint64_t before,
                                       std::uint64_t after) {
  std::size_t count = 0;
  for (std::size_t b = 0; b < 8; ++b) {
    const std::uint64_t mask = 0xFFULL << (b * 8);
    count += (before & mask) == 0 && (after & mask) != 0;
  }
  return count;
}

/// Commutative accumulators of the fused trace pass. Finish with
/// dense::finish_hash(hash_sum, hash_mix); commutativity is what lets the
/// kernels batch dirty words in any width without changing the hash.
struct TraceAnalysis {
  std::uint64_t hash_sum = 0;
  std::uint64_t hash_mix = 0;
  std::size_t trace_edges = 0;
  /// Virgin-map cells that went 0 -> nonzero (edges_covered delta).
  std::size_t newly_covered = 0;
  bool new_coverage = false;
};

/// Outcome of a merge kernel (accumulate / worker-to-exchange fold).
struct MergeResult {
  std::size_t newly_covered = 0;
  bool added = false;
};

/// Fused classify + hash + count + accumulate over the listed dirty words of
/// `trace` (uint64 map words), folding fresh bits into `virgin` and appending
/// every virgin word that transitions 0 -> nonzero to `acc_dirty` (the
/// accumulated-map dirty superset the sparse merge path iterates).
using AnalyzeTraceFn = TraceAnalysis (*)(std::uint64_t* trace,
                                         const std::uint16_t* indices,
                                         std::uint32_t count,
                                         std::uint64_t* virgin,
                                         DirtyWordList* acc_dirty);

/// Classify-only pass over the listed dirty words (the per-query
/// end_execution path).
using ClassifyWordsFn = void (*)(std::uint64_t* trace,
                                 const std::uint16_t* indices,
                                 std::uint32_t count);

/// Sparse merge: ORs the listed words of `src` into `dst` (both uint64 map
/// arrays), appending dst words that transition 0 -> nonzero to `acc_dirty`.
/// The SIMD arms compare whole batches first, so the steady-state case
/// (nothing fresh) skips several words per instruction.
using MergeWordsFn = MergeResult (*)(std::uint64_t* dst,
                                     const std::uint64_t* src,
                                     const std::uint16_t* indices,
                                     std::uint32_t count,
                                     DirtyWordList* acc_dirty);

/// Full-map merge from a raw kMapSize-byte snapshot (cross-process shipping,
/// persistence — no dirty list travels with the bytes).
using MergeFullFn = MergeResult (*)(std::uint64_t* dst,
                                    const std::uint8_t* src_bytes,
                                    DirtyWordList* acc_dirty);

/// Reader-side adoption of an externally produced raw trace (the shared
/// memory map an out-of-process target wrote): sweeps all kMapWords of
/// `src`, copies every nonzero word into `dst` and appends its index to
/// `dirty` in ascending order — rebuilding the dirty list the shm map could
/// not ship. `dst`'s unlisted words must already be zero (the caller clears
/// its previous dirty words first). The vector arms test whole batches for
/// zero, so the mostly-zero steady-state map skips several words per
/// instruction.
using AdoptFullFn = void (*)(std::uint64_t* dst, const std::uint64_t* src,
                             DirtyWordList* dirty);

/// One kernel's dispatch table.
struct KernelOps {
  Kernel kind = Kernel::kScalar;
  const char* name = "scalar";
  AnalyzeTraceFn analyze_trace = nullptr;
  ClassifyWordsFn classify_words = nullptr;
  MergeWordsFn merge_words = nullptr;
  MergeFullFn merge_full = nullptr;
  AdoptFullFn adopt_full = nullptr;
};

/// The portable reference kernel (always compiled).
const KernelOps& scalar_ops();

/// The dispatch table for `kind`, or nullptr when that kernel is not
/// compiled in / not supported by this CPU. kAuto resolves to the best
/// runnable kernel (never nullptr: scalar always runs).
const KernelOps* ops_for(Kernel kind);

/// The best kernel this build can run on this CPU (kAVX2 or kScalar).
Kernel best_kernel();

/// Human-readable kernel name ("auto", "scalar", "avx2", "dense").
std::string_view kernel_name(Kernel kind);

}  // namespace icsfuzz::cov::simd
