// The StrideBV classification engine (paper Sections III-A and IV-A).
//
// The rule set is first lowered to ternary entries (port ranges expand
// to prefix blocks — the same lowering a TCAM needs, and what this
// paper means by "employs the FSBV algorithm for the entire rule").
// Classification walks the ceil(104/k) stride stages, ANDing one
// M-bit vector per stage, then the PPE extracts the best entry, which
// maps back to its originating rule.
//
// Dynamic updates (paper Section IV-C) are truly incremental: entry
// columns live in stable physical slots, and inserting or erasing a
// rule rewrites ONLY the affected columns — one 2^k-word column patch
// per stage via StrideTable::set_entry/append_entry — plus the PPE's
// priority-tag mapping. Nothing else is touched; there is no full
// rebuild. Erased columns are zeroed (they can never match again) and
// recycled by later insertions through a free list, so physical entry
// order is allocation order, not priority order; the tag-mapped PPE
// restores priority semantics by comparing rule indices instead of
// column positions. Multi-match is the entry vector folded onto rule
// indices.
#pragma once

#include <vector>

#include "engines/common/engine.h"
#include "engines/stridebv/ppe.h"
#include "engines/stridebv/stride_table.h"

namespace rfipc::engines::stridebv {

struct StrideBVConfig {
  /// Stride width k (paper evaluates 3 and 4).
  unsigned stride = 4;
};

class StrideBVEngine final : public ClassifierEngine {
 public:
  StrideBVEngine(ruleset::RuleSet rules, StrideBVConfig config);

  std::string name() const override;
  std::size_t rule_count() const override { return rules_.size(); }
  bool supports_multi_match() const override { return true; }
  bool supports_update() const override { return true; }

  MatchResult classify(const net::HeaderBits& header) const override;
  /// Vectorized batch path over the calling thread's ScratchArena (no
  /// heap traffic in steady state): each header is decoded once into
  /// its stage rows (StrideTable::rows_for), which the SIMD kernel ANDs
  /// column-blocked, dropping each block once it is all-zero.
  void classify_batch(std::span<const net::HeaderBits> headers,
                      std::span<MatchResult> results,
                      const BatchOptions& opts) const override;
  using ClassifierEngine::classify_batch;
  /// Incremental update: patches the new entry columns and the PPE tag
  /// mapping; cost does not depend on the stage-memory width W or on a
  /// rebuild of the other N-1 rules' columns.
  bool insert_rule(std::size_t index, const ruleset::Rule& rule) override;
  bool erase_rule(std::size_t index) override;
  EnginePtr clone() const override { return std::make_unique<StrideBVEngine>(*this); }

  /// Live ternary entries after range lowering (>= rule_count()).
  std::size_t entry_count() const { return live_entries_; }
  /// Physical entry columns allocated in stage memory (>= entry_count();
  /// the difference is erased columns awaiting reuse).
  std::size_t physical_entry_count() const { return entries_.size(); }
  unsigned stride() const { return config_.stride; }
  unsigned num_stages() const { return table_.num_stages(); }
  /// Stride stages + PPE stages: the pipeline depth a packet traverses
  /// (paper: W/k + log2 N).
  unsigned pipeline_depth() const { return table_.num_stages() + ppe_.num_stages(); }
  std::uint64_t memory_bits() const { return table_.memory_bits(); }

  /// Host-side footprint: stage memories (memory_bits rounded up to
  /// bytes) + decoded rules + entry/tag bookkeeping.
  std::uint64_t memory_bytes() const override {
    return (table_.memory_bits() + 7) / 8 +
           static_cast<std::uint64_t>(rules_.size()) * sizeof(ruleset::Rule) +
           static_cast<std::uint64_t>(entries_.capacity()) *
               sizeof(ruleset::TernaryWord) +
           static_cast<std::uint64_t>(entry_rule_.capacity() +
                                      free_slots_.capacity()) *
               sizeof(std::size_t);
  }

  const StrideTable& table() const { return table_; }
  const ruleset::RuleSet& rules() const { return rules_; }
  /// Rule index that physical entry e belongs to, or kFreeSlot for an
  /// erased (all-zero) column.
  std::size_t entry_rule(std::size_t e) const { return entry_rule_[e]; }
  static constexpr std::size_t kFreeSlot = static_cast<std::size_t>(-1);

  /// The raw multi-match ENTRY vector for a header (before folding onto
  /// rules): the same stage walk as classify_batch, one header at a time.
  util::BitVector match_entries(const net::HeaderBits& header) const;

 private:
  void rebuild();
  /// Folds set entry bits onto rule indices in `out` (best + optionally
  /// multi). `out` must already be reset via MatchResult::reset_for.
  void fold_entries(const util::BitVector& entry_bv, MatchResult& out,
                    bool want_multi) const;

  ruleset::RuleSet rules_;
  StrideBVConfig config_;
  std::vector<ruleset::TernaryWord> entries_;  // physical slot -> entry
  std::vector<std::size_t> entry_rule_;        // physical slot -> rule (PPE tags)
  std::vector<std::size_t> free_slots_;        // erased columns, reusable
  std::size_t live_entries_ = 0;
  StrideTable table_;
  PipelinedPriorityEncoder ppe_;
};

}  // namespace rfipc::engines::stridebv
