// Runtime-dispatched SIMD kernels for the bit-vector hot loops.
//
// The software data plane spends nearly all of its cycles ANDing stage
// rows into a partial-match vector and folding the survivors. These
// kernels are the one place that loop is written: a scalar reference
// implementation that works everywhere, and an AVX2 implementation
// selected at runtime via cpuid on x86-64. Dispatch is a function-table
// pointer resolved once on first use; callers grab `active()` and call
// through it, so a binary built on any machine runs correctly on any
// other.
//
// All kernels operate on raw 64-bit word arrays (the storage unit of
// util::BitVector) and are non-throwing: size/validity checks belong to
// the callers. Words past the logical bit length must already be masked
// to zero — the BitVector invariant — so `count`/`first_set` need no
// tail handling.
//
// Build knobs / test hooks:
//   - CMake -DRFIPC_DISABLE_SIMD=ON compiles the AVX2 path out entirely
//     (active() is always the scalar table) — the CI scalar-fallback leg.
//   - force_scalar(true) pins dispatch to the scalar table at runtime,
//     so differential tests can compare both paths in one binary.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rfipc::util::simd {

/// One implementation of every kernel. All pointers are non-null.
struct Kernels {
  /// Implementation name for diagnostics ("scalar", "avx2").
  const char* name;

  /// dst[w] &= src[w] for w in [0, words).
  void (*and_into)(std::uint64_t* dst, const std::uint64_t* src, std::size_t words);

  /// dst = rows[0] & rows[1] & ... & rows[k-1], k >= 1 (dst is
  /// zero-filled when the result is empty). Column-blocked: each block
  /// (one word scalar, four AVX2) is ANDed across the rows in a
  /// register, left once it is all-zero and stored once, so a row is
  /// read only where its block still has a live entry. rows[i] == dst
  /// is allowed. Returns true when the result has any set bit.
  bool (*and_rows_into)(std::uint64_t* dst, const std::uint64_t* const* rows,
                        std::size_t k, std::size_t words);

  /// Total set bits over words[0, n).
  std::size_t (*count)(const std::uint64_t* words, std::size_t n);

  /// Bit index of the lowest set bit over words[0, n), or npos.
  std::size_t (*first_set)(const std::uint64_t* words, std::size_t n);
};

inline constexpr std::size_t npos = static_cast<std::size_t>(-1);

/// The portable reference implementation (always available).
const Kernels& scalar_kernels();

/// True when the running CPU supports the AVX2 path and it was compiled
/// in (x86-64, RFIPC_DISABLE_SIMD off).
bool avx2_supported();

/// The AVX2 implementation. Only callable when avx2_supported().
const Kernels& avx2_kernels();

/// The dispatched table: AVX2 when supported and not forced off,
/// otherwise scalar. Cheap enough to call per batch, not per word.
const Kernels& active();

/// Test hook: pin dispatch to the scalar table (true) or restore
/// autodetection (false). Affects subsequent active() calls globally.
void force_scalar(bool on);

/// Name of the table active() currently returns.
const char* active_name();

}  // namespace rfipc::util::simd
