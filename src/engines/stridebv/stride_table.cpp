#include "engines/stridebv/stride_table.h"

#include <stdexcept>

#include "util/bitops.h"

namespace rfipc::engines::stridebv {
namespace {

/// (value, mask) of entry bits in window [lo, lo+k); positions past the
/// header width contribute don't-care. First window bit is the MSB of
/// the returned pair, matching HeaderBits::stride ordering.
struct WindowTernary {
  std::uint32_t value = 0;
  std::uint32_t mask = 0;
};

WindowTernary window_of(const ruleset::TernaryWord& e, unsigned lo, unsigned k) {
  WindowTernary w;
  for (unsigned i = 0; i < k; ++i) {
    w.value <<= 1;
    w.mask <<= 1;
    const unsigned pos = lo + i;
    if (pos < net::kHeaderBits && e.care_bit(pos)) {
      w.mask |= 1u;
      w.value |= e.value_bit(pos) ? 1u : 0u;
    }
  }
  return w;
}

unsigned checked_stride(unsigned k) {
  if (k < 1 || k > 8) throw std::invalid_argument("StrideTable: stride must be 1..8");
  return k;
}

}  // namespace

StrideTable::StrideTable(std::span<const ruleset::TernaryWord> entries, unsigned k)
    : k_(checked_stride(k)),
      num_stages_(static_cast<unsigned>(util::ceil_div(net::kHeaderBits, k))),
      width_(entries.size()) {
  table_.assign(static_cast<std::size_t>(num_stages_) << k_, util::BitVector(width_));
  for (std::size_t e = 0; e < entries.size(); ++e) set_entry(e, entries[e]);
}

void StrideTable::set_entry(std::size_t index, const ruleset::TernaryWord& entry) {
  if (index >= width_) throw std::out_of_range("StrideTable::set_entry");
  const auto values = static_cast<std::uint32_t>(vectors_per_stage());
  for (unsigned s = 0; s < num_stages_; ++s) {
    const WindowTernary w = window_of(entry, s * k_, k_);
    for (std::uint32_t v = 0; v < values; ++v) {
      bv_mut(s, v).assign_bit(index, (v & w.mask) == (w.value & w.mask));
    }
  }
}

void StrideTable::clear_entry(std::size_t index) {
  if (index >= width_) throw std::out_of_range("StrideTable::clear_entry");
  const auto values = static_cast<std::uint32_t>(vectors_per_stage());
  for (unsigned s = 0; s < num_stages_; ++s) {
    for (std::uint32_t v = 0; v < values; ++v) bv_mut(s, v).reset(index);
  }
}

std::size_t StrideTable::append_entry(const ruleset::TernaryWord& entry) {
  const std::size_t index = width_++;
  for (auto& bv : table_) bv.resize(width_);
  set_entry(index, entry);
  return index;
}

void StrideTable::rows_for(const net::HeaderBits& header,
                           const std::uint64_t** rows) const {
  // The 13 header bytes as a left-aligned 128-bit key (hi:lo); each
  // stage peels the top k bits. The zero bits below bit 104 are the
  // padding the last stage reads for every k in 1..8.
  const auto& bytes = header.bytes();
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  for (unsigned i = 0; i < 8; ++i) hi = (hi << 8) | bytes[i];
  for (unsigned i = 8; i < bytes.size(); ++i) lo = (lo << 8) | bytes[i];
  lo <<= 24;
  const util::BitVector* stage = table_.data();
  for (unsigned s = 0; s < num_stages_; ++s, stage += vectors_per_stage()) {
    rows[s] = stage[hi >> (64 - k_)].words().data();
    hi = (hi << k_) | (lo >> (64 - k_));
    lo <<= k_;
  }
}

std::uint64_t StrideTable::memory_bits() const {
  return static_cast<std::uint64_t>(num_stages_) * vectors_per_stage() * width_;
}

}  // namespace rfipc::engines::stridebv
