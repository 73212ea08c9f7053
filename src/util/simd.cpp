#include "util/simd.h"

#include <atomic>
#include <bit>

#if defined(__x86_64__) && !defined(RFIPC_DISABLE_SIMD)
#define RFIPC_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace rfipc::util::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels.
// ---------------------------------------------------------------------------

void scalar_and_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) dst[w] &= src[w];
}

/// Word w of rows[0] & ... & rows[k-1]. An AND can never resurrect a
/// bit, so the remaining rows are skipped once the word is all-zero.
inline std::uint64_t and_column(const std::uint64_t* const* rows, std::size_t k,
                                std::size_t w) {
  std::uint64_t acc = rows[0][w];
  for (std::size_t r = 1; r < k && acc != 0; ++r) acc &= rows[r][w];
  return acc;
}

bool scalar_and_rows_into(std::uint64_t* dst, const std::uint64_t* const* rows,
                          std::size_t k, std::size_t words) {
  // Column-blocked: every row's word w is read before dst[w] is stored,
  // which is what makes rows[i] == dst safe.
  std::uint64_t nonzero = 0;
  for (std::size_t w = 0; w < words; ++w) {
    dst[w] = and_column(rows, k, w);
    nonzero |= dst[w];
  }
  return nonzero != 0;
}

std::size_t scalar_count(const std::uint64_t* words, std::size_t n) {
  std::size_t c = 0;
  for (std::size_t w = 0; w < n; ++w) c += static_cast<std::size_t>(std::popcount(words[w]));
  return c;
}

std::size_t scalar_first_set(const std::uint64_t* words, std::size_t n) {
  for (std::size_t w = 0; w < n; ++w) {
    if (words[w] != 0) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(words[w]));
    }
  }
  return npos;
}

constexpr Kernels kScalar{"scalar", scalar_and_into, scalar_and_rows_into,
                          scalar_count, scalar_first_set};

#ifdef RFIPC_SIMD_AVX2
// ---------------------------------------------------------------------------
// AVX2 kernels: 4 words (256 bits) per vector op, scalar tails. The
// functions carry a target attribute so the TU itself builds without
// -mavx2 and the binary stays runnable on non-AVX2 hosts.
// ---------------------------------------------------------------------------

__attribute__((target("avx2")))
void avx2_and_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t words) {
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), _mm256_and_si256(d, s));
  }
  for (; w < words; ++w) dst[w] &= src[w];
}

__attribute__((target("avx2")))
bool avx2_and_rows_into(std::uint64_t* dst, const std::uint64_t* const* rows,
                        std::size_t k, std::size_t words) {
  // The scalar kernel's column-blocked walk, one 4-word block at a time.
  std::size_t w = 0;
  __m256i any = _mm256_setzero_si256();
  for (; w + 4 <= words; w += 4) {
    __m256i acc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[0] + w));
    for (std::size_t r = 1; r < k && !_mm256_testz_si256(acc, acc); ++r) {
      acc = _mm256_and_si256(
          acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[r] + w)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), acc);
    any = _mm256_or_si256(any, acc);
  }
  std::uint64_t tail_nonzero = 0;
  for (; w < words; ++w) {
    dst[w] = and_column(rows, k, w);
    tail_nonzero |= dst[w];
  }
  return tail_nonzero != 0 || !_mm256_testz_si256(any, any);
}

__attribute__((target("avx2,popcnt")))
std::size_t avx2_count(const std::uint64_t* words, std::size_t n) {
  // Hardware POPCNT on four parallel accumulators; the memory-bound AND
  // kernels are where vectors pay, counting is latency-bound on popcnt.
  std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    c0 += static_cast<std::size_t>(__builtin_popcountll(words[w]));
    c1 += static_cast<std::size_t>(__builtin_popcountll(words[w + 1]));
    c2 += static_cast<std::size_t>(__builtin_popcountll(words[w + 2]));
    c3 += static_cast<std::size_t>(__builtin_popcountll(words[w + 3]));
  }
  for (; w < n; ++w) c0 += static_cast<std::size_t>(__builtin_popcountll(words[w]));
  return c0 + c1 + c2 + c3;
}

__attribute__((target("avx2")))
std::size_t avx2_first_set(const std::uint64_t* words, std::size_t n) {
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + w));
    if (!_mm256_testz_si256(v, v)) break;  // a set bit lives in this block
  }
  for (; w < n; ++w) {
    if (words[w] != 0) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(words[w]));
    }
  }
  return npos;
}

constexpr Kernels kAvx2{"avx2", avx2_and_into, avx2_and_rows_into, avx2_count,
                        avx2_first_set};
#endif  // RFIPC_SIMD_AVX2

std::atomic<bool> g_force_scalar{false};

const Kernels* detect() {
#ifdef RFIPC_SIMD_AVX2
  if (__builtin_cpu_supports("avx2")) return &kAvx2;
#endif
  return &kScalar;
}

}  // namespace

const Kernels& scalar_kernels() { return kScalar; }

bool avx2_supported() {
#ifdef RFIPC_SIMD_AVX2
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const Kernels& avx2_kernels() {
#ifdef RFIPC_SIMD_AVX2
  return kAvx2;
#else
  return kScalar;  // scalar-only build: the best we can offer
#endif
}

const Kernels& active() {
  static const Kernels* detected = detect();
  return g_force_scalar.load(std::memory_order_relaxed) ? kScalar : *detected;
}

void force_scalar(bool on) { g_force_scalar.store(on, std::memory_order_relaxed); }

const char* active_name() { return active().name; }

}  // namespace rfipc::util::simd
