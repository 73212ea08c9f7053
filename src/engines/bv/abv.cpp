#include "engines/bv/abv.h"

#include <algorithm>
#include <stdexcept>

#include "net/header.h"
#include "util/bitops.h"

namespace rfipc::engines::bv {

AbvEngine::AbvEngine(ruleset::RuleSet rules, AbvConfig config)
    : base_(std::move(rules)), config_(config) {
  if (config_.chunk_bits < 2 || config_.chunk_bits > 4096) {
    throw std::invalid_argument("AbvEngine: chunk_bits must be 2..4096");
  }
  // Precompute the aggregate of every stored field vector: aggregate
  // bit c = OR of rule bits [c*A, (c+1)*A).
  const std::size_t n = base_.rule_count();
  const std::size_t chunks = util::ceil_div(n, config_.chunk_bits);
  aggregates_.resize(5);
  for (std::size_t f = 0; f < 5; ++f) {
    const auto& axis = base_.axis(f);
    aggregates_[f].reserve(axis.interval_count());
    for (std::size_t i = 0; i < axis.interval_count(); ++i) {
      const auto& full = axis.vector(i);
      util::BitVector agg(chunks);
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t lo = c * config_.chunk_bits;
        const std::size_t hi = std::min<std::size_t>(n, lo + config_.chunk_bits);
        for (std::size_t b = lo; b < hi; ++b) {
          if (full.test(b)) {
            agg.set(c);
            break;
          }
        }
      }
      aggregates_[f].push_back(std::move(agg));
    }
  }
}

std::string AbvEngine::name() const {
  return "ABV(A=" + std::to_string(config_.chunk_bits) + ")";
}

MatchResult AbvEngine::classify(const net::HeaderBits& header) const {
  const net::FiveTuple t = header.unpack();
  const std::size_t n = base_.rule_count();
  const unsigned a = config_.chunk_bits;
  const std::size_t chunks = util::ceil_div(n, a);

  // Phase 1: AND the five short aggregate vectors.
  std::size_t interval[5];
  for (std::size_t f = 0; f < 5; ++f) {
    interval[f] =
        base_.axis(f).interval_index(BvDecompositionEngine::field_value(t, f));
  }
  util::BitVector surviving = aggregates_[0][interval[0]];
  for (std::size_t f = 1; f < 5; ++f) surviving.and_with(aggregates_[f][interval[f]]);

  // Phase 2: only surviving chunks of the full vectors are fetched and
  // ANDed (5 memory touches per surviving chunk).
  MatchResult r;
  r.multi = util::BitVector(n);
  for (std::size_t c = surviving.first_set(); c != util::BitVector::npos;
       c = surviving.next_set(c + 1)) {
    const std::size_t lo = c * a;
    const std::size_t hi = std::min<std::size_t>(n, lo + a);
    for (std::size_t b = lo; b < hi; ++b) {
      bool all = true;
      for (std::size_t f = 0; f < 5 && all; ++f) {
        all = base_.axis(f).vector(interval[f]).test(b);
      }
      if (all) {
        r.multi.set(b);
        if (r.best == MatchResult::kNoMatch) r.best = b;
      }
    }
  }
  chunks_touched_.fetch_add(surviving.count() * 5, std::memory_order_relaxed);
  chunks_total_.fetch_add(chunks * 5, std::memory_order_relaxed);
  return r;
}

std::uint64_t AbvEngine::memory_bits() const {
  std::uint64_t aggregate_bits = 0;
  for (const auto& per_field : aggregates_) {
    for (const auto& agg : per_field) aggregate_bits += agg.size();
  }
  return base_.memory_bits() + aggregate_bits;
}

}  // namespace rfipc::engines::bv
