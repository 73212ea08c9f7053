#include "engines/stridebv/stridebv_engine.h"

#include <bit>
#include <stdexcept>
#include <utility>

#include "engines/common/scratch.h"
#include "util/simd.h"

namespace rfipc::engines::stridebv {
namespace {

struct Lowered {
  std::vector<ruleset::TernaryWord> entries;
  std::vector<std::size_t> entry_rule;
};

Lowered lower(const ruleset::RuleSet& rules) {
  Lowered out;
  for (std::size_t r = 0; r < rules.size(); ++r) {
    for (auto& e : ruleset::rule_to_ternary(rules[r])) {
      out.entries.push_back(e);
      out.entry_rule.push_back(r);
    }
  }
  return out;
}

}  // namespace

StrideBVEngine::StrideBVEngine(ruleset::RuleSet rules, StrideBVConfig config)
    : rules_(std::move(rules)),
      config_(config),
      entries_(),
      entry_rule_(),
      table_({}, config.stride),
      ppe_(1) {
  if (rules_.empty()) throw std::invalid_argument("StrideBVEngine: empty ruleset");
  rebuild();
}

void StrideBVEngine::rebuild() {
  Lowered low = lower(rules_);
  entries_ = std::move(low.entries);
  entry_rule_ = std::move(low.entry_rule);
  free_slots_.clear();
  live_entries_ = entries_.size();
  table_ = StrideTable(entries_, config_.stride);
  ppe_ = PipelinedPriorityEncoder(entries_.size());
}

std::string StrideBVEngine::name() const {
  return "StrideBV(k=" + std::to_string(config_.stride) + ")";
}

util::BitVector StrideBVEngine::match_entries(const net::HeaderBits& header) const {
  // BVP enters stage 0 as all-ones (Figure 2); each stage ANDs the
  // vector its stride value addresses in stage memory. Erased columns
  // are all-zero in every stage, so they drop out at stage 0.
  util::BitVector bv(entries_.size());
  std::vector<const std::uint64_t*> rows(table_.num_stages());
  table_.rows_for(header, rows.data());
  util::simd::active().and_rows_into(bv.words().data(), rows.data(), rows.size(),
                                     bv.words().size());
  return bv;
}

void StrideBVEngine::fold_entries(const util::BitVector& entry_bv, MatchResult& out,
                                  bool want_multi) const {
  // Word-wise scan of the entry vector: physical order is not priority
  // order after updates, so track the minimum rule index while folding.
  const auto words = entry_bv.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      const std::size_t e = w * util::kWordBits +
                            static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      const std::size_t rule = entry_rule_[e];
      if (want_multi) out.multi.set(rule);
      if (rule < out.best) out.best = rule;
    }
  }
}

MatchResult StrideBVEngine::classify(const net::HeaderBits& header) const {
  const util::BitVector entry_bv = match_entries(header);
  MatchResult r;
  // Tag-mapped PPE: priority is the entry's rule index, not its
  // physical column position.
  const std::size_t best_entry = ppe_.encode(entry_bv, entry_rule_);
  if (best_entry != util::BitVector::npos) r.best = entry_rule_[best_entry];
  // Fold entry bits onto rule indices for the multi-match report.
  r.multi = util::BitVector(rules_.size());
  for (std::size_t e = entry_bv.first_set(); e != util::BitVector::npos;
       e = entry_bv.next_set(e + 1)) {
    r.multi.set(entry_rule_[e]);
  }
  return r;
}

void StrideBVEngine::classify_batch(std::span<const net::HeaderBits> headers,
                                    std::span<MatchResult> results,
                                    const BatchOptions& opts) const {
  if (headers.size() != results.size()) {
    throw std::invalid_argument("classify_batch: span size mismatch");
  }
  if (headers.empty()) return;
  // Zero-allocation inner loop: the calling thread's ScratchArena holds
  // the partial-match vector and the per-stage row pointers, and keeps
  // their capacity across calls. Each header is decoded once into its
  // stage rows, and the SIMD kernel ANDs them column-blocked, dropping a
  // block once it is all-zero. Priority extraction is the word-scan fold
  // (functionally identical to the staged PPE, which models hardware
  // structure, not software speed).
  const unsigned stages = table_.num_stages();
  const std::size_t words = util::ceil_div(entries_.size(), util::kWordBits);
  const auto& kernels = util::simd::active();
  thread_local ScratchArena arena;
  arena.entry_bv.assign_zeros(entries_.size());
  arena.rows.resize(stages);
  std::uint64_t* dst = arena.entry_bv.words().data();
  for (std::size_t p = 0; p < headers.size(); ++p) {
    table_.rows_for(headers[p], arena.rows.data());
    const bool any = kernels.and_rows_into(dst, arena.rows.data(), stages, words);
    results[p].reset_for(rules_.size(), opts.want_multi);
    if (any) fold_entries(arena.entry_bv, results[p], opts.want_multi);
  }
}

bool StrideBVEngine::insert_rule(std::size_t index, const ruleset::Rule& rule) {
  if (index > rules_.size()) return false;
  rules_.insert(index, rule);
  // Retag: rules at or below the insertion point move down one priority
  // slot. Pure bookkeeping on the PPE mapping — no stage memory traffic.
  for (auto& r : entry_rule_) {
    if (r != kFreeSlot && r >= index) ++r;
  }
  // Write only the new rule's columns: reuse erased slots when
  // available, otherwise widen each stage vector by one column.
  const std::size_t old_width = entries_.size();
  for (const auto& e : ruleset::rule_to_ternary(rule)) {
    if (!free_slots_.empty()) {
      const std::size_t slot = free_slots_.back();
      free_slots_.pop_back();
      entries_[slot] = e;
      entry_rule_[slot] = index;
      table_.set_entry(slot, e);
    } else {
      entries_.push_back(e);
      entry_rule_.push_back(index);
      table_.append_entry(e);
    }
    ++live_entries_;
  }
  // The PPE tree only depends on the physical width; steady-state
  // inserts that recycle erased columns keep it untouched.
  if (entries_.size() != old_width) ppe_ = PipelinedPriorityEncoder(entries_.size());
  return true;
}

bool StrideBVEngine::erase_rule(std::size_t index) {
  if (index >= rules_.size()) return false;
  rules_.erase(index);
  // Zero the erased rule's columns and retag the rest — again, only the
  // affected columns touch stage memory.
  for (std::size_t e = 0; e < entry_rule_.size(); ++e) {
    if (entry_rule_[e] == kFreeSlot) continue;
    if (entry_rule_[e] == index) {
      table_.clear_entry(e);
      entry_rule_[e] = kFreeSlot;
      free_slots_.push_back(e);
      --live_entries_;
    } else if (entry_rule_[e] > index) {
      --entry_rule_[e];
    }
  }
  return true;
}

}  // namespace rfipc::engines::stridebv
