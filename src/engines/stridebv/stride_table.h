// StrideBV stage memory: the per-stride bit-vector tables.
//
// For stride width k over the W=104-bit canonical header string there
// are S = ceil(W/k) stages. Stage s stores 2^k bit-vectors of M bits
// (M = number of ternary entries): BV[s][v] has bit e set iff the k-bit
// header stride value v is compatible with entry e's ternary bits in
// window [s*k, (s+1)*k). Classification ANDs one vector per stage
// (Figure 2 of the paper); this module only builds and stores the
// tables.
//
// The last window may extend past bit 104; header bits there read as
// zero and entries place no constraint on them, mirroring the
// zero-padded final stage of the hardware pipeline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/header.h"
#include "ruleset/ternary.h"
#include "util/bitvector.h"

namespace rfipc::engines::stridebv {

class StrideTable {
 public:
  /// Builds the table for `entries` with stride width `k` (1..8).
  StrideTable(std::span<const ruleset::TernaryWord> entries, unsigned k);

  unsigned stride() const { return k_; }
  unsigned num_stages() const { return num_stages_; }
  /// Bit-vector width M (entry count).
  std::size_t width() const { return width_; }
  /// Bit-vectors per stage (2^k).
  std::size_t vectors_per_stage() const { return std::size_t{1} << k_; }

  /// The stage-s bit-vector selected by stride value v.
  const util::BitVector& bv(unsigned stage, std::uint32_t value) const {
    return table_[stage * vectors_per_stage() + value];
  }

  /// Re-derives the bit column of entry `index` from `entry` in every
  /// stage — the per-entry hardware update path (one memory column
  /// rewrite per stage, no full rebuild).
  void set_entry(std::size_t index, const ruleset::TernaryWord& entry);

  /// Clears entry `index` everywhere (the entry matches nothing).
  void clear_entry(std::size_t index);

  /// Widens every stage vector by one column and derives the new
  /// column (index = previous width()) from `entry`. Cost is
  /// O(2^k · stages), independent of the number of existing entries.
  /// Returns the new entry's index.
  std::size_t append_entry(const ruleset::TernaryWord& entry);

  /// Total stage-memory bits: S * 2^k * M — the paper's StrideBV memory
  /// requirement (Figure 7, before RAM-block rounding).
  std::uint64_t memory_bits() const;

  /// The canonical stride value of `header` for stage s.
  std::uint32_t stride_value(const net::HeaderBits& header, unsigned stage) const {
    return header.stride(stage * k_, k_);
  }

  /// Decodes `header` once and points rows[s] at the words of
  /// bv(s, stride_value(header, s)) for every stage; `rows` holds
  /// num_stages() pointers.
  void rows_for(const net::HeaderBits& header, const std::uint64_t** rows) const;

 private:
  util::BitVector& bv_mut(unsigned stage, std::uint32_t value) {
    return table_[stage * vectors_per_stage() + value];
  }

  unsigned k_;
  unsigned num_stages_;
  std::size_t width_;
  std::vector<util::BitVector> table_;  // [stage][value] flattened
};

}  // namespace rfipc::engines::stridebv
