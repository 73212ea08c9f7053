#include "util/bitvector.h"

#include <algorithm>
#include <stdexcept>

#include "util/simd.h"

namespace rfipc::util {

BitVector::BitVector(std::size_t size, bool value)
    : size_(size), words_(ceil_div(size, kWordBits), value ? ~std::uint64_t{0} : 0) {
  if (value) clear_tail();
}

void BitVector::clear_tail() {
  const unsigned tail = size_ % kWordBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= low_mask(tail);
  }
}

void BitVector::set_all() {
  std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
  clear_tail();
}

void BitVector::reset_all() { std::fill(words_.begin(), words_.end(), 0); }

void BitVector::resize(std::size_t size) {
  size_ = size;
  words_.resize(ceil_div(size, kWordBits), 0);
  clear_tail();
}

void BitVector::assign_zeros(std::size_t size) {
  size_ = size;
  words_.assign(ceil_div(size, kWordBits), 0);  // vector::assign reuses capacity
}

void BitVector::and_with(const BitVector& other) {
  if (other.size_ != size_) throw std::invalid_argument("BitVector::and_with: size mismatch");
  simd::active().and_into(words_.data(), other.words_.data(), words_.size());
}

void BitVector::or_with(const BitVector& other) {
  if (other.size_ != size_) throw std::invalid_argument("BitVector::or_with: size mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void BitVector::xor_with(const BitVector& other) {
  if (other.size_ != size_) throw std::invalid_argument("BitVector::xor_with: size mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
}

void BitVector::flip() {
  for (auto& w : words_) w = ~w;
  clear_tail();
}

std::size_t BitVector::count() const {
  return simd::active().count(words_.data(), words_.size());
}

bool BitVector::none() const {
  for (auto w : words_) {
    if (w != 0) return false;
  }
  return true;
}

std::size_t BitVector::first_set() const {
  const std::size_t b = simd::active().first_set(words_.data(), words_.size());
  return b == simd::npos ? npos : b;
}

std::size_t BitVector::next_set(std::size_t from) const {
  if (from >= size_) return npos;
  std::size_t wi = from / kWordBits;
  std::uint64_t w = words_[wi] & ~low_mask(from % kWordBits);
  while (true) {
    if (w != 0) {
      return wi * kWordBits + static_cast<std::size_t>(lowest_set_bit(w));
    }
    if (++wi >= words_.size()) return npos;
    w = words_[wi];
  }
}

std::size_t BitVector::last_set() const {
  for (std::size_t wi = words_.size(); wi-- > 0;) {
    if (words_[wi] != 0) {
      return wi * kWordBits + static_cast<std::size_t>(highest_set_bit(words_[wi]));
    }
  }
  return npos;
}

std::vector<std::size_t> BitVector::set_bits() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for (std::size_t i = first_set(); i != npos; i = next_set(i + 1)) out.push_back(i);
  return out;
}

std::string BitVector::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (test(i)) s[i] = '1';
  }
  return s;
}

BitVector bv_and(const BitVector& a, const BitVector& b) {
  BitVector r = a;
  r.and_with(b);
  return r;
}

BitVector bv_or(const BitVector& a, const BitVector& b) {
  BitVector r = a;
  r.or_with(b);
  return r;
}

}  // namespace rfipc::util
