// Kernel implementations for coverage/simd.hpp.
//
// Layout of the AVX2 analyze kernel: classify a batch of four dirty words
// with byte-wide vector ops (the scalar cost was 8 bucket-table lookups per
// word), then finish each 64-bit word with a scalar tail — virgin
// accumulate, dirty-superset append, and a hash mix per nonzero cell driven
// by a branchless nonzero-byte bitmask, so only cells that actually hashed
// under the scalar reference are visited. The (sum, xor) hash accumulators
// are commutative, which is what makes any batch width bit-identical to the
// scalar loop.
//
// The classify sequence uses unsigned byte max (v >= c  <=>  max(v, c) ==
// v), byte equality, and mask blends. Applied in ascending threshold order,
// later ranges overwrite earlier ones:
//
//   r = v                    // 0, 1, 2 map to themselves
//   r = (v == 3)   ? 4   : r
//   r = (v >= 4)   ? 8   : r
//   r = (v >= 8)   ? 16  : r
//   r = (v >= 16)  ? 32  : r
//   r = (v >= 32)  ? 64  : r
//   r = (v >= 128) ? 128 : r
#include "coverage/simd.hpp"

#include <bit>

#include "coverage/dense_ref.hpp"

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__AVX2__) || defined(__GNUC__) || defined(__clang__))
// The AVX2 kernel is compiled even in baseline builds via the target
// attribute; best_kernel() gates it behind a cpuid probe.
#define ICSFUZZ_SIMD_AVX2 1
#include <immintrin.h>
#endif

#if defined(__GNUC__) && !defined(__AVX2__) && defined(ICSFUZZ_SIMD_AVX2)
#define ICSFUZZ_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define ICSFUZZ_TARGET_AVX2
#endif

namespace icsfuzz::cov::simd {
namespace {

/// Bitmask of nonzero bytes of `word` (bit b set iff byte b != 0), branch
/// free: collapse each byte onto its LSB, then gather the LSBs into the top
/// byte with a multiply.
inline std::uint32_t nonzero_byte_mask(std::uint64_t word) {
  std::uint64_t t = word | (word >> 4);
  t |= t >> 2;
  t |= t >> 1;
  t &= 0x0101010101010101ULL;
  return static_cast<std::uint32_t>((t * 0x0102040810204080ULL) >> 56);
}

/// Scalar tail of the AVX2 analyze kernel: store the classified word, fold
/// fresh bits into the virgin map (appending the 0 -> nonzero transition to
/// the accumulated dirty superset), and mix the hash of each nonzero cell.
inline void finish_word(std::uint64_t* trace, std::uint64_t* virgin,
                        DirtyWordList* acc_dirty, TraceAnalysis& out,
                        std::size_t w, std::uint64_t classified) {
  trace[w] = classified;
  const std::uint64_t have = virgin[w];
  const std::uint64_t fresh = classified & ~have;
  if (fresh != 0) {
    if (have == 0) {
      acc_dirty->indices[acc_dirty->count++] = static_cast<std::uint16_t>(w);
    }
    virgin[w] = have | fresh;
    out.newly_covered += newly_nonzero_bytes(have, have | fresh);
    out.new_coverage = true;
  }
  std::uint32_t mask = nonzero_byte_mask(classified);
  out.trace_edges += std::popcount(mask);
  while (mask != 0) {
    const unsigned b = static_cast<unsigned>(std::countr_zero(mask));
    mask &= mask - 1;
    const std::uint64_t v = dense::mix_cell(
        w * 8 + b, static_cast<std::uint8_t>(classified >> (b * 8)));
    out.hash_sum += v;
    out.hash_mix ^= v;
  }
}

/// Scalar merge of one source word into dst[w] (shared by every merge
/// kernel's hit path).
inline void merge_one_word(std::uint64_t* dst, std::uint64_t src_word,
                           std::size_t w, DirtyWordList* acc_dirty,
                           MergeResult& out) {
  const std::uint64_t have = dst[w];
  const std::uint64_t fresh = src_word & ~have;
  if (fresh == 0) return;
  if (have == 0) {
    acc_dirty->indices[acc_dirty->count++] = static_cast<std::uint16_t>(w);
  }
  dst[w] = have | fresh;
  out.newly_covered += newly_nonzero_bytes(have, have | fresh);
  out.added = true;
}

// ------------------------------------------------------------- scalar --
// The sparse path's fused loop — the reference the AVX2 kernel must match
// bit for bit, and the kernel every CPU without AVX2 runs.

TraceAnalysis analyze_trace_scalar(std::uint64_t* trace,
                                   const std::uint16_t* indices,
                                   std::uint32_t count, std::uint64_t* virgin,
                                   DirtyWordList* acc_dirty) {
  TraceAnalysis out;
  auto* bytes = reinterpret_cast<std::uint8_t*>(trace);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t w = indices[i];
    std::uint8_t* cell = bytes + w * 8;
    for (std::size_t b = 0; b < 8; ++b) cell[b] = kBucketTable[cell[b]];
    const std::uint64_t word = trace[w];
    const std::uint64_t have = virgin[w];
    const std::uint64_t fresh = word & ~have;
    if (fresh != 0) {
      if (have == 0) {
        acc_dirty->indices[acc_dirty->count++] = static_cast<std::uint16_t>(w);
      }
      virgin[w] = have | fresh;
      out.newly_covered += newly_nonzero_bytes(have, have | fresh);
      out.new_coverage = true;
    }
    for (std::size_t b = 0; b < 8; ++b) {
      if (cell[b] == 0) continue;
      const std::uint64_t v = dense::mix_cell(w * 8 + b, cell[b]);
      out.hash_sum += v;
      out.hash_mix ^= v;
      ++out.trace_edges;
    }
  }
  return out;
}

void classify_words_scalar(std::uint64_t* trace, const std::uint16_t* indices,
                           std::uint32_t count) {
  auto* bytes = reinterpret_cast<std::uint8_t*>(trace);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t* cell = bytes + static_cast<std::size_t>(indices[i]) * 8;
    for (std::size_t b = 0; b < 8; ++b) cell[b] = kBucketTable[cell[b]];
  }
}

MergeResult merge_words_scalar(std::uint64_t* dst, const std::uint64_t* src,
                               const std::uint16_t* indices,
                               std::uint32_t count,
                               DirtyWordList* acc_dirty) {
  MergeResult out;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t w = indices[i];
    merge_one_word(dst, src[w], w, acc_dirty, out);
  }
  return out;
}

MergeResult merge_full_scalar(std::uint64_t* dst,
                              const std::uint8_t* src_bytes,
                              DirtyWordList* acc_dirty) {
  MergeResult out;
  for (std::size_t w = 0; w < kMapWords; ++w) {
    merge_one_word(dst, dense::load_word(src_bytes, w), w, acc_dirty, out);
  }
  return out;
}

/// Shared tail of every adopt kernel: copy one nonzero word and list it.
inline void adopt_one_word(std::uint64_t* dst, std::uint64_t src_word,
                           std::size_t w, DirtyWordList* dirty) {
  if (src_word == 0) return;
  dst[w] = src_word;
  dirty->indices[dirty->count++] = static_cast<std::uint16_t>(w);
}

void adopt_full_scalar(std::uint64_t* dst, const std::uint64_t* src,
                       DirtyWordList* dirty) {
  for (std::size_t w = 0; w < kMapWords; ++w) {
    adopt_one_word(dst, src[w], w, dirty);
  }
}

constexpr KernelOps kScalarOps = {Kernel::kScalar,      "scalar",
                                  analyze_trace_scalar, classify_words_scalar,
                                  merge_words_scalar,   merge_full_scalar,
                                  adopt_full_scalar};

// --------------------------------------------------------------- AVX2 --
#if defined(ICSFUZZ_SIMD_AVX2)

ICSFUZZ_TARGET_AVX2 inline __m256i ge256_epu8(__m256i v, __m256i c) {
  return _mm256_cmpeq_epi8(_mm256_max_epu8(v, c), v);
}

ICSFUZZ_TARGET_AVX2 inline __m256i blend256(__m256i mask, __m256i a,
                                            __m256i b) {
  return _mm256_or_si256(_mm256_and_si256(mask, a),
                         _mm256_andnot_si256(mask, b));
}

/// AFL-classifies 32 raw counts (4 map words) at once.
ICSFUZZ_TARGET_AVX2 inline __m256i classify32(__m256i v) {
  __m256i r = v;
  r = blend256(_mm256_cmpeq_epi8(v, _mm256_set1_epi8(3)), _mm256_set1_epi8(4),
               r);
  r = blend256(ge256_epu8(v, _mm256_set1_epi8(4)), _mm256_set1_epi8(8), r);
  r = blend256(ge256_epu8(v, _mm256_set1_epi8(8)), _mm256_set1_epi8(16), r);
  r = blend256(ge256_epu8(v, _mm256_set1_epi8(16)), _mm256_set1_epi8(32), r);
  r = blend256(ge256_epu8(v, _mm256_set1_epi8(32)), _mm256_set1_epi8(64), r);
  r = blend256(ge256_epu8(v, _mm256_set1_epi8(static_cast<char>(128))),
               _mm256_set1_epi8(static_cast<char>(128)), r);
  return r;
}

ICSFUZZ_TARGET_AVX2 TraceAnalysis analyze_trace_avx2(
    std::uint64_t* trace, const std::uint16_t* indices, std::uint32_t count,
    std::uint64_t* virgin, DirtyWordList* acc_dirty) {
  TraceAnalysis out;
  std::uint32_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const std::size_t w0 = indices[i];
    const std::size_t w1 = indices[i + 1];
    const std::size_t w2 = indices[i + 2];
    const std::size_t w3 = indices[i + 3];
    const __m256i raw = _mm256_set_epi64x(
        static_cast<long long>(trace[w3]), static_cast<long long>(trace[w2]),
        static_cast<long long>(trace[w1]), static_cast<long long>(trace[w0]));
    alignas(32) std::uint64_t classified[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(classified),
                       classify32(raw));
    finish_word(trace, virgin, acc_dirty, out, w0, classified[0]);
    finish_word(trace, virgin, acc_dirty, out, w1, classified[1]);
    finish_word(trace, virgin, acc_dirty, out, w2, classified[2]);
    finish_word(trace, virgin, acc_dirty, out, w3, classified[3]);
  }
  for (; i < count; ++i) {
    const std::size_t w = indices[i];
    const __m256i raw =
        _mm256_set_epi64x(0, 0, 0, static_cast<long long>(trace[w]));
    alignas(32) std::uint64_t classified[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(classified),
                       classify32(raw));
    finish_word(trace, virgin, acc_dirty, out, w, classified[0]);
  }
  return out;
}

ICSFUZZ_TARGET_AVX2 void classify_words_avx2(std::uint64_t* trace,
                                             const std::uint16_t* indices,
                                             std::uint32_t count) {
  std::uint32_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const std::size_t w0 = indices[i];
    const std::size_t w1 = indices[i + 1];
    const std::size_t w2 = indices[i + 2];
    const std::size_t w3 = indices[i + 3];
    const __m256i raw = _mm256_set_epi64x(
        static_cast<long long>(trace[w3]), static_cast<long long>(trace[w2]),
        static_cast<long long>(trace[w1]), static_cast<long long>(trace[w0]));
    alignas(32) std::uint64_t classified[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(classified),
                       classify32(raw));
    trace[w0] = classified[0];
    trace[w1] = classified[1];
    trace[w2] = classified[2];
    trace[w3] = classified[3];
  }
  if (i < count) classify_words_scalar(trace, indices + i, count - i);
}

ICSFUZZ_TARGET_AVX2 MergeResult merge_words_avx2(
    std::uint64_t* dst, const std::uint64_t* src, const std::uint16_t* indices,
    std::uint32_t count, DirtyWordList* acc_dirty) {
  MergeResult out;
  std::uint32_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const std::size_t w0 = indices[i];
    const std::size_t w1 = indices[i + 1];
    const std::size_t w2 = indices[i + 2];
    const std::size_t w3 = indices[i + 3];
    const __m256i s = _mm256_set_epi64x(
        static_cast<long long>(src[w3]), static_cast<long long>(src[w2]),
        static_cast<long long>(src[w1]), static_cast<long long>(src[w0]));
    const __m256i d = _mm256_set_epi64x(
        static_cast<long long>(dst[w3]), static_cast<long long>(dst[w2]),
        static_cast<long long>(dst[w1]), static_cast<long long>(dst[w0]));
    const __m256i fresh = _mm256_andnot_si256(d, s);
    if (_mm256_testz_si256(fresh, fresh)) continue;
    merge_one_word(dst, src[w0], w0, acc_dirty, out);
    merge_one_word(dst, src[w1], w1, acc_dirty, out);
    merge_one_word(dst, src[w2], w2, acc_dirty, out);
    merge_one_word(dst, src[w3], w3, acc_dirty, out);
  }
  for (; i < count; ++i) {
    const std::size_t w = indices[i];
    merge_one_word(dst, src[w], w, acc_dirty, out);
  }
  return out;
}

ICSFUZZ_TARGET_AVX2 MergeResult merge_full_avx2(std::uint64_t* dst,
                                                const std::uint8_t* src_bytes,
                                                DirtyWordList* acc_dirty) {
  MergeResult out;
  for (std::size_t w = 0; w < kMapWords; w += 4) {
    const __m256i s = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src_bytes + w * 8));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i fresh = _mm256_andnot_si256(d, s);
    if (_mm256_testz_si256(fresh, fresh)) continue;
    for (std::size_t k = 0; k < 4; ++k) {
      merge_one_word(dst, dense::load_word(src_bytes, w + k), w + k, acc_dirty,
                     out);
    }
  }
  return out;
}

ICSFUZZ_TARGET_AVX2 void adopt_full_avx2(std::uint64_t* dst,
                                         const std::uint64_t* src,
                                         DirtyWordList* dirty) {
  for (std::size_t w = 0; w < kMapWords; w += 4) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    if (_mm256_testz_si256(s, s)) continue;
    adopt_one_word(dst, src[w], w, dirty);
    adopt_one_word(dst, src[w + 1], w + 1, dirty);
    adopt_one_word(dst, src[w + 2], w + 2, dirty);
    adopt_one_word(dst, src[w + 3], w + 3, dirty);
  }
}

constexpr KernelOps kAvx2Ops = {Kernel::kAVX2,       "avx2",
                                analyze_trace_avx2,  classify_words_avx2,
                                merge_words_avx2,    merge_full_avx2,
                                adopt_full_avx2};
#endif  // ICSFUZZ_SIMD_AVX2

// ----------------------------------------------------------- dispatch --

/// kDense: the scalar table under its own identity. CoverageMap routes a
/// dense map's begin/finalize through coverage/dense_ref.hpp; merges and
/// adoption dispatch here.
constexpr KernelOps kDenseOps = {Kernel::kDense,       "dense",
                                 analyze_trace_scalar, classify_words_scalar,
                                 merge_words_scalar,   merge_full_scalar,
                                 adopt_full_scalar};

Kernel probe_best() {
#if defined(ICSFUZZ_SIMD_AVX2)
#if defined(__AVX2__)
  return Kernel::kAVX2;  // compiled for AVX2 hardware; no probe needed
#elif defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) return Kernel::kAVX2;
#endif
#endif
  return Kernel::kScalar;
}

}  // namespace

const KernelOps& scalar_ops() { return kScalarOps; }

const KernelOps* ops_for(Kernel kind) {
  switch (kind) {
    case Kernel::kAuto:
      return ops_for(best_kernel());
    case Kernel::kScalar:
      return &kScalarOps;
    case Kernel::kAVX2:
#if defined(ICSFUZZ_SIMD_AVX2)
      return best_kernel() == Kernel::kAVX2 ? &kAvx2Ops : nullptr;
#else
      return nullptr;
#endif
    case Kernel::kDense:
      return &kDenseOps;
  }
  return nullptr;
}

Kernel best_kernel() {
  static const Kernel best = probe_best();
  return best;
}

std::string_view kernel_name(Kernel kind) {
  switch (kind) {
    case Kernel::kAuto:
      return "auto";
    case Kernel::kScalar:
      return "scalar";
    case Kernel::kAVX2:
      return "avx2";
    case Kernel::kDense:
      return "dense";
  }
  return "scalar";
}

}  // namespace icsfuzz::cov::simd
