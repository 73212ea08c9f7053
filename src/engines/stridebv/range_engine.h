// StrideBV with explicit range-search modules (extension).
//
// Pure AND-of-stride-vectors cannot represent an arbitrary range without
// lowering it to prefixes first (an arbitrary range predicate is not
// separable across bit windows), so the plain StrideBVEngine inflates
// entries exactly like a TCAM does. The original StrideBV architecture
// (Ganegedara & Prasanna, HPSR 2012 — reference [5] of the paper)
// avoids that inflation for the port fields by inserting explicit range
// comparison stages into the pipeline: N parallel [lo, hi] comparators
// per port field, each emitting one bit of an N-bit vector.
//
// This engine implements that variant: stride stages over SIP+DIP
// (64 bits) and PRT (8 bits), plus one range module per port field.
// Bit-vector width is exactly N (no expansion) at the cost of 2 * 32 * N
// bits of bound registers and N comparators per range stage. The
// ablation bench (bench_ablation_range) quantifies the trade.
//
// Port fields ride the shared lowering pipeline's INTERVAL-NATIVE
// representation (ruleset::lowering::IntervalSet): each rule's port
// stage is a disjoint interval set, so a rule always costs exactly one
// bit-vector column regardless of how many prefix blocks its ranges
// would have expanded into. The factory exposes this engine as the
// interval-port option "stridebv:ki".
#pragma once

#include <vector>

#include "engines/common/engine.h"
#include "engines/stridebv/ppe.h"
#include "engines/stridebv/stride_table.h"
#include "engines/stridebv/stridebv_engine.h"  // StrideBVConfig
#include "ruleset/lowering.h"

namespace rfipc::engines::stridebv {

class StrideBVRangeEngine final : public ClassifierEngine {
 public:
  StrideBVRangeEngine(ruleset::RuleSet rules, StrideBVConfig config);

  std::string name() const override;
  std::size_t rule_count() const override { return rules_.size(); }
  bool supports_multi_match() const override { return true; }
  bool supports_update() const override { return true; }

  MatchResult classify(const net::HeaderBits& header) const override;
  bool insert_rule(std::size_t index, const ruleset::Rule& rule) override;
  bool erase_rule(std::size_t index) override;
  EnginePtr clone() const override { return std::make_unique<StrideBVRangeEngine>(*this); }

  unsigned stride() const { return config_.stride; }
  /// Stride stages (SIP+DIP and PRT windows) — excludes range modules.
  unsigned num_stride_stages() const;
  /// Full pipeline depth: stride stages + 2 range stages + PPE.
  unsigned pipeline_depth() const;
  /// Stage memory bits: stride tables + range bound registers.
  std::uint64_t memory_bits() const;
  /// Interval-native lowering: always exactly one entry per rule (the
  /// number a prefix-expanding engine compares its blow-up against).
  std::size_t entry_count() const { return rules_.size(); }

  /// Host-side footprint: stage memories + decoded rules + interval
  /// bound registers.
  std::uint64_t memory_bytes() const override;

  const ruleset::RuleSet& rules() const { return rules_; }

 private:
  void rebuild();

  ruleset::RuleSet rules_;
  StrideBVConfig config_;
  // Stride tables over the prefix/exact windows. We reuse StrideTable by
  // building per-window ternary entries whose range-field bits are
  // don't-care; only the windows below are consulted at classify time.
  std::vector<ruleset::TernaryWord> masked_entries_;
  StrideTable table_;
  std::vector<ruleset::lowering::IntervalSet> sp_bounds_;
  std::vector<ruleset::lowering::IntervalSet> dp_bounds_;
  PipelinedPriorityEncoder ppe_;
};

}  // namespace rfipc::engines::stridebv
