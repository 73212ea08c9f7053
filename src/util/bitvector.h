// Dynamic bit-vector used for StrideBV partial-match vectors and TCAM
// match lines.
//
// The vector is a contiguous array of 64-bit words, little-endian within
// a word: bit index i lives in word i/64 at position i%64. Bit index i
// corresponds to rule priority i (0 = highest priority), matching the
// paper's convention that the topmost rule has the highest priority.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/bitops.h"

namespace rfipc::util {

class BitVector {
 public:
  BitVector() = default;

  /// Creates a vector of `size` bits, all initialized to `value`.
  explicit BitVector(std::size_t size, bool value = false);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Number of 64-bit storage words.
  std::size_t word_count() const { return words_.size(); }
  std::span<const std::uint64_t> words() const { return words_; }
  std::span<std::uint64_t> words() { return words_; }

  bool test(std::size_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }
  void set(std::size_t i) { words_[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits); }
  void reset(std::size_t i) { words_[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits)); }
  void assign_bit(std::size_t i, bool v) { v ? set(i) : reset(i); }

  void set_all();
  void reset_all();

  /// Grows or shrinks to `size` bits; new bits are zero.
  void resize(std::size_t size);

  /// Makes the vector exactly `size` bits, all zero, REUSING the
  /// existing word buffer whenever its capacity suffices — the
  /// allocation-free reset the batch data plane leans on (a fresh
  /// BitVector(size) would heap-allocate per call).
  void assign_zeros(std::size_t size);

  /// Destructive bitwise AND with `other`. Sizes must match.
  void and_with(const BitVector& other);
  /// Destructive bitwise OR with `other`. Sizes must match.
  void or_with(const BitVector& other);
  /// Destructive bitwise XOR with `other`. Sizes must match.
  void xor_with(const BitVector& other);
  /// Flips every bit (bits beyond size() stay zero).
  void flip();

  /// Number of set bits.
  std::size_t count() const;
  /// True when no bit is set.
  bool none() const;
  /// True when at least one bit is set.
  bool any() const { return !none(); }

  /// Index of the lowest set bit, or npos when none. This is the
  /// highest-priority match extraction step of both engines.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t first_set() const;
  /// Lowest set bit at index >= from, or npos.
  std::size_t next_set(std::size_t from) const;
  /// Index of the highest set bit, or npos when none.
  std::size_t last_set() const;

  /// Collects the indices of all set bits in ascending order.
  std::vector<std::size_t> set_bits() const;

  /// "0"/"1" string, index 0 first.
  std::string to_string() const;

  bool operator==(const BitVector& other) const = default;

 private:
  void clear_tail();

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Non-destructive AND of two equally sized vectors.
BitVector bv_and(const BitVector& a, const BitVector& b);
/// Non-destructive OR of two equally sized vectors.
BitVector bv_or(const BitVector& a, const BitVector& b);

}  // namespace rfipc::util
