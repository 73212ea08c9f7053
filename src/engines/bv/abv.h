// Aggregated Bit Vector (ABV) — reference [17] of the paper
// (Srinivasan et al., "Scalable and parallel aggregated bit vector
// packet classification").
//
// The decomposition BV's N-bit per-field vectors are sparse for large
// N; ABV adds one aggregate bit per A-bit chunk (the OR of the chunk),
// ANDs the short aggregate vectors first, and only reads/ANDs the full
// chunks whose aggregate survived. In hardware this cuts memory
// accesses; in this functional model we count touched chunks so the
// saving is measurable. Correctness is unchanged — the aggregate is a
// conservative filter (aggregate 0 => chunk all zero).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "engines/bv/decomposition.h"
#include "engines/common/engine.h"

namespace rfipc::engines::bv {

struct AbvConfig {
  /// Aggregation granularity: one aggregate bit per `chunk_bits` rules.
  /// The classic choice is the machine word.
  unsigned chunk_bits = 64;
};

struct AbvStats {
  /// Full-width chunks examined / chunks that would be examined
  /// without aggregation, accumulated over classify() calls.
  std::uint64_t chunks_touched = 0;
  std::uint64_t chunks_total = 0;
  double touch_fraction() const {
    return chunks_total == 0
               ? 0
               : static_cast<double>(chunks_touched) / static_cast<double>(chunks_total);
  }
};

class AbvEngine final : public ClassifierEngine {
 public:
  AbvEngine(ruleset::RuleSet rules, AbvConfig config = {});

  std::string name() const override;
  std::size_t rule_count() const override { return base_.rule_count(); }
  bool supports_multi_match() const override { return true; }

  MatchResult classify(const net::HeaderBits& header) const override;

  /// Field-axis memory + aggregate overhead bits.
  std::uint64_t memory_bits() const;
  /// Access accounting since construction. classify is const and may
  /// run on several threads at once, so the counters are atomic
  /// telemetry, read here as a snapshot.
  AbvStats stats() const {
    return {chunks_touched_.load(std::memory_order_relaxed),
            chunks_total_.load(std::memory_order_relaxed)};
  }

 private:
  BvDecompositionEngine base_;
  AbvConfig config_;
  /// aggregates_[field][interval] = ceil(N/A)-bit OR-folded vector.
  std::vector<std::vector<util::BitVector>> aggregates_;
  mutable std::atomic<std::uint64_t> chunks_touched_{0};
  mutable std::atomic<std::uint64_t> chunks_total_{0};
};

}  // namespace rfipc::engines::bv
