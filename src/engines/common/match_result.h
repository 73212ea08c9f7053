// The result of classifying one header.
#pragma once

#include <cstddef>
#include <optional>

#include "ruleset/rule.h"
#include "util/bitvector.h"

namespace rfipc::engines {

struct MatchResult {
  static constexpr std::size_t kNoMatch = static_cast<std::size_t>(-1);

  /// Highest-priority matching rule index, or kNoMatch.
  std::size_t best = kNoMatch;

  /// Multi-match vector: bit i set iff rule i matched (paper Section
  /// III-A — IDS-style applications need all matches). Engines that only
  /// report the best match leave it empty.
  util::BitVector multi;

  /// The winning rule's action, drop when nothing matched. Filled by
  /// runtime::ShardedClassifier from the same snapshot that answered
  /// `best`; the engines themselves leave it at drop.
  ruleset::Action action = ruleset::Action::drop();

  bool has_match() const { return best != kNoMatch; }

  /// Resets to "no match" (action drop) with a zeroed multi vector of
  /// `rules` bits (or an empty one when `want_multi` is false), reusing
  /// the existing heap buffer whenever capacity suffices. The batch
  /// engines call this per packet so a recycled results array never
  /// reallocates.
  void reset_for(std::size_t rules, bool want_multi = true) {
    best = kNoMatch;
    action = ruleset::Action::drop();
    multi.assign_zeros(want_multi ? rules : 0);
  }

  std::optional<std::size_t> best_or_nullopt() const {
    return has_match() ? std::optional<std::size_t>(best) : std::nullopt;
  }
};

}  // namespace rfipc::engines
