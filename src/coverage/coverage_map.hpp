// Edge-coverage bookkeeping: the per-execution trace map plus the
// accumulated "virgin" map that decides whether a seed is valuable.
//
// Hot-path design (the sparse dirty-word overhaul): a typical execution
// touches a few hundred of the 64 Ki map cells, so every per-execution
// operation runs over the DirtyWordList maintained by cov::hit() instead of
// sweeping all 8192 words — begin_execution clears only the words the
// previous execution dirtied (no 64 KiB memset), and finalize_execution
// classifies, hashes, counts and accumulates in ONE sweep of the dirty
// words. The pre-sparse full-map passes live on in coverage/dense_ref.hpp
// as the bit-for-bit reference (equivalence tests, bench_hotpath's A/B).
//
// The per-word cell work itself (classify + nonzero scan + hash mix, and the
// word compares of merges) runs through a pluggable kernel
// (coverage/simd.hpp): AVX2 when the CPU has it, with the scalar fused loop
// as the always-available reference. A map defaults to the best kernel;
// use_kernel() pins one explicitly (tests, bench_hotpath's arms,
// ExecutorConfig::coverage_kernel). Pinning simd::Kernel::kDense turns the
// map into the dense reference oracle: begin_execution and
// finalize_execution then run the full-map passes instead.
//
// An out-of-process trace arrives as a raw map in shared memory, together
// with the dirty-word list its producer kept (exec_oop/exec_protocol.hpp).
// adopt_sparse copies just the listed words; adopt_external rebuilds the
// list with a full-map scan and is the fallback whenever the list cannot
// be trusted (an execution that did not complete, an unpublished list)
// and the only adoption of the kDense oracle.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "coverage/instrument.hpp"
#include "coverage/simd.hpp"

namespace icsfuzz::cov {

/// Classifies raw edge-hit counts into AFL's 8 buckets so that loop-count
/// changes (1 vs 2 vs 3..) register as new behaviour without making every
/// count unique.
std::uint8_t classify_count(std::uint8_t raw);

/// Everything the feedback loop needs to know about one finished execution,
/// produced by CoverageMap::finalize_execution in a single sparse sweep.
struct TraceSummary {
  /// Order-insensitive hash of the classified (edge, bucket) set.
  std::uint64_t trace_hash = 0;
  /// Distinct edges in the trace.
  std::size_t trace_edges = 0;
  /// The trace contained virgin bits, which were accumulated (the combined
  /// has_new_bits() + accumulate() answer).
  bool new_coverage = false;
};

/// One execution's trace plus campaign-lifetime accumulation.
class CoverageMap {
 public:
  CoverageMap();

  /// Clears the words the previous execution dirtied (sparse analogue of
  /// the full memset; a kDense map memsets the whole trace) and arms
  /// thread-local tracing into the trace buffer.
  void begin_execution();

  /// Disarms tracing, then classifies, hashes, counts and accumulates the
  /// trace in one sweep of the dirty words. Exactly equivalent to
  /// end_execution() + trace_hash() + trace_edge_count() + accumulate(),
  /// fused; call one or the other per execution (classification is not
  /// idempotent). The per-query API below remains valid afterwards. A
  /// kDense map runs the full-map passes of coverage/dense_ref.hpp instead
  /// (~6 whole-map sweeps, bit-identical results).
  TraceSummary finalize_execution();

  /// Disarms tracing and classifies the raw counts in place (dirty words
  /// only). Use the per-query API below afterwards; prefer
  /// finalize_execution() on hot paths.
  void end_execution();

  /// Reader-side adoption of an externally produced raw trace — the shared
  /// memory map an out-of-process target wrote (exec_oop/). Clears the
  /// words the previous execution dirtied, then rebuilds the dirty list
  /// with the active kernel's nonzero sweep of `words` (kMapWords uint64s),
  /// copying every nonzero word into the trace buffer. Afterwards the map
  /// is in exactly the state begin_execution + in-process tracing would
  /// have left it (dirty order is ascending instead of first-touch, which
  /// every consumer is insensitive to — the hash accumulators are
  /// commutative), so finalize_execution (on any kernel) and the per-query
  /// API apply unchanged. Does NOT arm thread-local tracing.
  /// `words == nullptr` adopts the empty trace (clear only, no sweep).
  void adopt_external(const std::uint64_t* words);

  /// adopt_external reading only the words `indices[0 .. count)` names —
  /// the dirty-word list the producing process kept while tracing. Each
  /// index is masked to the map, zero words are skipped and a word is
  /// listed once however often it is named, so a corrupt or duplicated
  /// list can neither overflow the dirty list nor list a zero word. The
  /// result equals adopt_external(words) exactly when the list names
  /// every nonzero word (dirty order is the list's). Callers that cannot
  /// vouch for the list, and the kDense oracle, use adopt_external.
  void adopt_sparse(const std::uint64_t* words, const std::uint16_t* indices,
                    std::uint32_t count);

  /// Saturating increment of one raw trace cell, maintaining the dirty-word
  /// invariant (the word is appended on its 0 -> nonzero transition). The
  /// session layer injects its hashed session-state cells through this —
  /// directly into the cell, so neither tls_prev_location nor the
  /// instrumentation event count is perturbed. Safe between begin_execution
  /// (or adopt_external) and finalize_execution on the owning thread,
  /// including while thread-local tracing is armed into this map.
  void bump_trace_cell(std::uint32_t cell);

  /// True when the classified trace contains a bucketed edge never seen in
  /// the accumulated map. Does NOT update the accumulated map.
  [[nodiscard]] bool has_new_bits() const;

  /// Merges the classified trace into the accumulated map. Returns true if
  /// anything new was added (same condition as has_new_bits()).
  bool accumulate();

  /// Number of distinct edges (cells ever nonzero) accumulated so far.
  /// O(1): maintained incrementally by every accumulate/merge path.
  [[nodiscard]] std::size_t edges_covered() const { return edges_covered_; }

  /// Number of distinct edges in the current trace.
  [[nodiscard]] std::size_t trace_edge_count() const;

  /// Order-insensitive 64-bit hash of the classified (edge, bucket) set of
  /// the current trace; identical executions hash identically.
  [[nodiscard]] std::uint64_t trace_hash() const;

  /// Raw access for tests and serialization.
  [[nodiscard]] const std::uint8_t* trace() const {
    return reinterpret_cast<const std::uint8_t*>(trace_.get());
  }
  [[nodiscard]] const std::uint8_t* accumulated() const {
    return reinterpret_cast<const std::uint8_t*>(virgin_.get());
  }

  /// The 64-bit map words the current trace touched, in first-touch order
  /// (complete: every nonzero trace word is listed exactly once). Lets
  /// trace consumers (distill replay extraction, tests) iterate the sparse
  /// trace without a full-map sweep. Valid until the next begin_execution.
  [[nodiscard]] const std::uint16_t* dirty_words() const {
    return dirty_->indices;
  }
  [[nodiscard]] std::uint32_t dirty_word_count() const {
    return dirty_->count;
  }

  /// The 64-bit words of the *accumulated* map that have ever gone nonzero,
  /// in first-accumulation order (complete: every nonzero virgin word is
  /// listed exactly once — the campaign-lifetime dirty superset). merge()
  /// iterates the source map's superset instead of all 8192 words, so
  /// worker-to-exchange sync cost scales with coverage actually reached.
  [[nodiscard]] const std::uint16_t* accumulated_dirty_words() const {
    return acc_dirty_->indices;
  }
  [[nodiscard]] std::uint32_t accumulated_dirty_word_count() const {
    return acc_dirty_->count;
  }

  /// Pins this map's analysis/merge kernel (kAuto restores the best
  /// runnable kernel; unavailable kernels fall back to scalar; kDense selects
  /// the dense reference oracle). Results are bit-identical across kernels —
  /// only throughput changes.
  void use_kernel(simd::Kernel kind);

  /// The kernel this map currently dispatches to.
  [[nodiscard]] simd::Kernel kernel() const { return ops_->kind; }
  [[nodiscard]] const char* kernel_name() const { return ops_->name; }

  /// Merges `other`'s accumulated map into this one (bitwise OR of the
  /// classified bits). Returns true when anything new was added. The
  /// operation is idempotent and commutative, so parallel workers' maps can
  /// be folded into a global map in any order.
  bool merge(const CoverageMap& other);

  /// Merges a raw accumulated-map snapshot (kMapSize bytes, as produced by
  /// snapshot_accumulated()). Returns true when anything new was added.
  bool merge_accumulated(const std::uint8_t* bits);

  /// Copies the accumulated map. The in-process seed exchange merges live
  /// maps directly (merge()); the snapshot form exists for consumers that
  /// need a detached copy — serialization, cross-process shipping, tests.
  [[nodiscard]] std::vector<std::uint8_t> snapshot_accumulated() const;

  /// Forgets all accumulated coverage (fresh campaign).
  void reset_accumulated();

 private:
  [[nodiscard]] std::uint8_t* trace_bytes() {
    return reinterpret_cast<std::uint8_t*>(trace_.get());
  }
  [[nodiscard]] std::uint8_t* virgin_bytes() {
    return reinterpret_cast<std::uint8_t*>(virgin_.get());
  }
  [[nodiscard]] bool dense() const {
    return ops_->kind == simd::Kernel::kDense;
  }

  /// Zeroes the trace and empties its dirty list (begin/adopt).
  void clear_trace();
  /// kDense finalize: the independent full-map passes of dense_ref.hpp.
  TraceSummary finalize_dense();

  // Maps are stored as uint64 words (the unit every sparse operation works
  // in); cell access goes through the uint8_t aliases above. Heap-allocated
  // to keep CoverageMap cheaply movable and stack-friendly; the dirty list
  // lives behind its own pointer so an armed map's tls reference survives a
  // move of the CoverageMap object itself.
  std::unique_ptr<std::uint64_t[]> trace_;
  std::unique_ptr<std::uint64_t[]> virgin_;  // accumulated classified bits
  std::unique_ptr<DirtyWordList> dirty_;
  /// Dirty superset of the accumulated map: every virgin word that ever went
  /// nonzero, appended on its 0 -> nonzero transition by each accumulate/
  /// merge path (rebuilt by the dense-reference finalize, which bypasses the
  /// incremental paths). Cleared by reset_accumulated().
  std::unique_ptr<DirtyWordList> acc_dirty_;
  /// Active analysis/merge kernel (never null; defaults to kAuto's).
  const simd::KernelOps* ops_;
  /// Incrementally maintained nonzero-cell count of the virgin map.
  std::size_t edges_covered_ = 0;
};

}  // namespace icsfuzz::cov
