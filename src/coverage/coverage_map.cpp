#include "coverage/coverage_map.hpp"

#include <cstring>

#include "coverage/dense_ref.hpp"

namespace icsfuzz::cov {

std::uint8_t classify_count(std::uint8_t raw) {
  return simd::kBucketTable[raw];
}

CoverageMap::CoverageMap()
    : trace_(std::make_unique<std::uint64_t[]>(kMapWords)),
      virgin_(std::make_unique<std::uint64_t[]>(kMapWords)),
      dirty_(std::make_unique<DirtyWordList>()),
      acc_dirty_(std::make_unique<DirtyWordList>()),
      ops_(simd::ops_for(simd::Kernel::kAuto)) {
  std::memset(trace_.get(), 0, kMapSize);
  std::memset(virgin_.get(), 0, kMapSize);
}

void CoverageMap::use_kernel(simd::Kernel kind) {
  const simd::KernelOps* ops = simd::ops_for(kind);
  ops_ = ops == nullptr ? &simd::scalar_ops() : ops;
}

void CoverageMap::clear_trace() {
  if (dense()) {
    std::memset(trace_.get(), 0, kMapSize);
  } else {
    // Sparse clear: only the words the previous execution made nonzero. The
    // invariant "every word not in the dirty list is zero" holds from the
    // constructor memset onwards, because hit() appends each word on its
    // 0 -> nonzero transition and counters never decrease while armed.
    for (std::uint32_t i = 0; i < dirty_->count; ++i) {
      trace_[dirty_->indices[i]] = 0;
    }
  }
  dirty_->count = 0;
}

void CoverageMap::begin_execution() {
  clear_trace();
  begin_trace(trace_bytes(), dirty_.get());
}

TraceSummary CoverageMap::finalize_execution() {
  end_trace();
  if (dense()) return finalize_dense();
  // The fused classify+hash+count+accumulate pass, dispatched to the active
  // SIMD kernel (scalar reference produces bit-identical results).
  const simd::TraceAnalysis analysis = ops_->analyze_trace(
      trace_.get(), dirty_->indices, dirty_->count, virgin_.get(),
      acc_dirty_.get());
  edges_covered_ += analysis.newly_covered;
  TraceSummary summary;
  summary.trace_hash = dense::finish_hash(analysis.hash_sum,
                                          analysis.hash_mix);
  summary.trace_edges = analysis.trace_edges;
  summary.new_coverage = analysis.new_coverage;
  return summary;
}

TraceSummary CoverageMap::finalize_dense() {
  dense::classify_in_place(trace_bytes());
  TraceSummary summary;
  summary.trace_hash = dense::trace_hash(trace_bytes());
  summary.trace_edges = dense::edge_count(trace_bytes());
  summary.new_coverage = dense::accumulate(trace_bytes(), virgin_bytes());
  edges_covered_ = dense::edge_count(accumulated());
  // dense::accumulate bypasses the incremental superset maintenance; rebuild
  // it with one more full sweep (consistent with dense mode's charter of
  // paying the pre-overhaul whole-map costs).
  acc_dirty_->count = 0;
  for (std::size_t w = 0; w < kMapWords; ++w) {
    if (virgin_[w] != 0) {
      acc_dirty_->indices[acc_dirty_->count++] =
          static_cast<std::uint16_t>(w);
    }
  }
  return summary;
}

void CoverageMap::end_execution() {
  end_trace();
  ops_->classify_words(trace_.get(), dirty_->indices, dirty_->count);
}

void CoverageMap::adopt_external(const std::uint64_t* words) {
  // Same clear as begin_execution, but tracing stays disarmed: the trace
  // was produced in another process and only needs adopting.
  clear_trace();
  // Null = the empty trace (a lost fork server produced no coverage): the
  // clear above already is that state, no sweep needed.
  if (words != nullptr) ops_->adopt_full(trace_.get(), words, dirty_.get());
}

void CoverageMap::adopt_sparse(const std::uint64_t* words,
                               const std::uint16_t* indices,
                               std::uint32_t count) {
  clear_trace();
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto w = static_cast<std::uint16_t>(indices[i] & (kMapWords - 1));
    const std::uint64_t word = words[w];
    // After the clear, a nonzero trace word is one this loop already
    // copied: a duplicate index.
    if (word == 0 || trace_[w] != 0) continue;
    trace_[w] = word;
    dirty_->indices[dirty_->count++] = w;
  }
}

void CoverageMap::bump_trace_cell(std::uint32_t cell) {
  cell &= kMapSize - 1;
  const std::uint16_t word = static_cast<std::uint16_t>(cell >> 3);
  if (trace_[word] == 0) dirty_->indices[dirty_->count++] = word;
  std::uint8_t* bytes = trace_bytes();
  // Saturating (unlike the wrapping instrumentation counter): a cell stuck
  // at 255 still classifies into the top bucket, and saturation keeps the
  // "nonzero word implies listed" invariant unconditional.
  if (bytes[cell] != 0xFF) ++bytes[cell];
}

bool CoverageMap::has_new_bits() const {
  for (std::uint32_t i = 0; i < dirty_->count; ++i) {
    const std::size_t w = dirty_->indices[i];
    if ((trace_[w] & ~virgin_[w]) != 0) return true;
  }
  return false;
}

bool CoverageMap::accumulate() {
  // The classified trace is a sparse source whose nonzero words are exactly
  // the dirty list — the same shape as a peer merge, so it shares the
  // SIMD-compared merge kernel.
  const simd::MergeResult merged = ops_->merge_words(
      virgin_.get(), trace_.get(), dirty_->indices, dirty_->count,
      acc_dirty_.get());
  edges_covered_ += merged.newly_covered;
  return merged.added;
}

std::size_t CoverageMap::trace_edge_count() const {
  std::size_t count = 0;
  for (std::uint32_t i = 0; i < dirty_->count; ++i) {
    const std::uint8_t* cell = trace() + dirty_->indices[i] * 8;
    for (std::size_t b = 0; b < 8; ++b) count += cell[b] != 0;
  }
  return count;
}

std::uint64_t CoverageMap::trace_hash() const {
  // Commutative accumulation (sum + xor of per-cell mixes) so the hash is
  // independent of iteration order — which also makes the first-touch-order
  // dirty sweep hash identically to the ascending dense sweep.
  std::uint64_t sum = 0;
  std::uint64_t mix = 0;
  for (std::uint32_t i = 0; i < dirty_->count; ++i) {
    const std::size_t w = dirty_->indices[i];
    const std::uint8_t* cell = trace() + w * 8;
    for (std::size_t b = 0; b < 8; ++b) {
      if (cell[b] == 0) continue;
      const std::uint64_t v = dense::mix_cell(w * 8 + b, cell[b]);
      sum += v;
      mix ^= v;
    }
  }
  return dense::finish_hash(sum, mix);
}

bool CoverageMap::merge(const CoverageMap& other) {
  // Dirty-superset-aware: when the source campaign covered few words, walk
  // only its acc_dirty list (complete by the same append-on-transition
  // invariant as the trace dirty list). Once the superset is dense enough
  // that scattered gathers lose to contiguous loads, switch to the
  // SIMD-compared full sweep — a whole register of words per compare, with
  // the steady-state "peer has nothing new" case skipping each batch on one
  // test.
  const std::uint32_t count = other.acc_dirty_->count;
  const simd::MergeResult merged =
      count >= kMapWords / 8
          ? ops_->merge_full(virgin_.get(), other.accumulated(),
                             acc_dirty_.get())
          : ops_->merge_words(virgin_.get(), other.virgin_.get(),
                              other.acc_dirty_->indices, count,
                              acc_dirty_.get());
  edges_covered_ += merged.newly_covered;
  return merged.added;
}

bool CoverageMap::merge_accumulated(const std::uint8_t* bits) {
  // Raw snapshots carry no dirty list, so this stays a full-map sweep — but
  // a SIMD-compared one (a whole register of words per compare).
  const simd::MergeResult merged =
      ops_->merge_full(virgin_.get(), bits, acc_dirty_.get());
  edges_covered_ += merged.newly_covered;
  return merged.added;
}

std::vector<std::uint8_t> CoverageMap::snapshot_accumulated() const {
  return std::vector<std::uint8_t>(accumulated(), accumulated() + kMapSize);
}

void CoverageMap::reset_accumulated() {
  std::memset(virgin_.get(), 0, kMapSize);
  acc_dirty_->count = 0;
  edges_covered_ = 0;
}

}  // namespace icsfuzz::cov
