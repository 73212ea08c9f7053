#include "engines/common/factory.h"

#include <array>
#include <stdexcept>

#include "engines/baselines/hicuts_lite.h"
#include "engines/bv/abv.h"
#include "engines/bv/decomposition.h"
#include "engines/common/fault_injector.h"
#include "engines/common/linear_engine.h"
#include "engines/hybrid/fsbv_hybrid.h"
#include "engines/prefilter/prefilter_engine.h"
#include "engines/stridebv/range_engine.h"
#include "engines/stridebv/stridebv_engine.h"
#include "engines/tcam/partitioned_tcam.h"
#include "engines/tcam/tcam_engine.h"
#include "util/str.h"

namespace rfipc::engines {
namespace {

/// First ':' at parenthesis depth 0 — the suffix separator. A nested
/// spec like "faulty(stridebv:4):p=0.001" keeps its inner ':' intact.
std::size_t spec_colon(const std::string& spec) {
  int depth = 0;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const char c = spec[i];
    if (c == '(') ++depth;
    else if (c == ')') --depth;
    else if (c == ':' && depth == 0) return i;
  }
  return std::string::npos;
}

unsigned parse_stride(const std::string& spec, std::size_t colon) {
  if (colon == std::string::npos) return 4;  // the paper's default stride
  const auto k = util::parse_u64(std::string_view(spec).substr(colon + 1), 8);
  if (!k || *k < 1) throw std::invalid_argument("bad stride in engine spec: " + spec);
  return static_cast<unsigned>(*k);
}

// THE single source of truth for engine specs. make_engine() dispatch,
// known_engine_specs(), and engine_spec_help() are all derived from
// this table, so the accepted kinds and the documented kinds cannot
// drift apart. To add an engine, add one row here.
struct SpecEntry {
  std::string_view kind;  // spec prefix before the optional ':' suffix
  // Example specs advertised by known_engine_specs() (empty = unused).
  std::array<std::string_view, 2> examples;
  std::string_view help;  // one-line syntax + meaning for help text
  EnginePtr (*build)(const std::string& spec, std::size_t colon, ruleset::RuleSet rules);
};

constexpr SpecEntry kSpecTable[] = {
    {"linear",
     {"linear", ""},
     "golden priority-ordered linear scan (reference)",
     [](const std::string&, std::size_t, ruleset::RuleSet rules) -> EnginePtr {
       return std::make_unique<LinearSearchEngine>(std::move(rules));
     }},
    {"tcam",
     {"tcam", ""},
     "functional FPGA TCAM (ternary entries, ranges prefix-expanded)",
     [](const std::string&, std::size_t, ruleset::RuleSet rules) -> EnginePtr {
       return std::make_unique<tcam::TcamEngine>(std::move(rules));
     }},
    {"stridebv",
     {"stridebv:3", "stridebv:4i"},
     "StrideBV pipeline; :k = stride width 1..8 (default 4); :ki = interval ports",
     [](const std::string& spec, std::size_t colon, ruleset::RuleSet rules) -> EnginePtr {
       // A trailing 'i' on the stride suffix selects the interval-native
       // port stages (StrideBVRangeEngine) instead of prefix expansion.
       if (colon != std::string::npos && !spec.empty() && spec.back() == 'i') {
         const std::string trimmed = spec.substr(0, spec.size() - 1);
         return std::make_unique<stridebv::StrideBVRangeEngine>(
             std::move(rules), stridebv::StrideBVConfig{parse_stride(trimmed, colon)});
       }
       return std::make_unique<stridebv::StrideBVEngine>(
           std::move(rules), stridebv::StrideBVConfig{parse_stride(spec, colon)});
     }},
    {"hicuts",
     {"hicuts", ""},
     "HiCuts-lite decision tree (feature-RELIANT baseline)",
     [](const std::string&, std::size_t, ruleset::RuleSet rules) -> EnginePtr {
       return std::make_unique<baselines::HiCutsLiteEngine>(std::move(rules));
     }},
    {"fsbv-hybrid",
     {"fsbv-hybrid", ""},
     "per-field FSBV port planes + fabric-TCAM slice for SIP/DIP/PRT",
     [](const std::string&, std::size_t, ruleset::RuleSet rules) -> EnginePtr {
       return std::make_unique<hybrid::FsbvHybridEngine>(std::move(rules));
     }},
    {"bv",
     {"bv", ""},
     "decomposition bit-vector engine (per-field elementary intervals)",
     [](const std::string&, std::size_t, ruleset::RuleSet rules) -> EnginePtr {
       return std::make_unique<bv::BvDecompositionEngine>(std::move(rules));
     }},
    {"abv",
     {"abv:64", ""},
     "aggregated bit-vector overlay; :a = chunk size >= 2 (default 32)",
     [](const std::string& spec, std::size_t colon, ruleset::RuleSet rules) -> EnginePtr {
       bv::AbvConfig cfg;
       if (colon != std::string::npos) {
         const auto a = util::parse_u64(std::string_view(spec).substr(colon + 1), 4096);
         if (!a || *a < 2) throw std::invalid_argument("bad chunk size in spec: " + spec);
         cfg.chunk_bits = static_cast<unsigned>(*a);
       }
       return std::make_unique<bv::AbvEngine>(std::move(rules), cfg);
     }},
    {"faulty",
     {"faulty(linear):p=0", ""},
     "fault-injection wrapper: faulty(spec):p=,mode=throw|corrupt|delay|mixed,seed=,delay_us=",
     [](const std::string& spec, std::size_t colon, ruleset::RuleSet rules) -> EnginePtr {
       const std::size_t open = spec.find('(');
       const std::size_t close = spec.rfind(')');
       if (open == std::string::npos || close == std::string::npos || close < open + 2) {
         throw std::invalid_argument("faulty: expected faulty(<inner spec>): " + spec);
       }
       if (close + 1 != spec.size() && (colon == std::string::npos || colon != close + 1)) {
         throw std::invalid_argument("faulty: junk after ')': " + spec);
       }
       const std::string inner = spec.substr(open + 1, close - open - 1);
       const std::string opts =
           colon == std::string::npos ? std::string() : spec.substr(colon + 1);
       return std::make_unique<FaultInjectorEngine>(make_engine(inner, std::move(rules)),
                                                    parse_fault_profile(opts));
     }},
    {"prefilter",
     {"prefilter(linear)", "prefilter(stridebv:4):q=8,min=64"},
     "tuple-space hash pre-filter: prefilter(<resolver spec>):q=<quantum>,min=<class floor>",
     [](const std::string& spec, std::size_t colon, ruleset::RuleSet rules) -> EnginePtr {
       const std::size_t open = spec.find('(');
       const std::size_t close = spec.rfind(')');
       if (open == std::string::npos || close == std::string::npos || close < open + 2) {
         throw std::invalid_argument("prefilter: expected prefilter(<resolver spec>): " +
                                     spec);
       }
       if (close + 1 != spec.size() && (colon == std::string::npos || colon != close + 1)) {
         throw std::invalid_argument("prefilter: junk after ')': " + spec);
       }
       prefilter::PrefilterConfig cfg;
       cfg.resolver_spec = spec.substr(open + 1, close - open - 1);
       if (colon != std::string::npos) {
         // Keep the options substring alive for the string_views split() returns.
         const std::string opts = spec.substr(colon + 1);
         for (const auto field : util::split(opts, ',')) {
           const auto eq = field.find('=');
           if (eq == std::string_view::npos) {
             throw std::invalid_argument("prefilter: expected k=v option, got '" +
                                         std::string(field) + "'");
           }
           const auto key = util::trim(field.substr(0, eq));
           const auto value = util::trim(field.substr(eq + 1));
           if (key == "q") {
             const auto q = util::parse_u64(value, 32);
             if (!q || *q < 1) throw std::invalid_argument("prefilter: bad q in " + spec);
             cfg.quantum = static_cast<unsigned>(*q);
           } else if (key == "min") {
             const auto m = util::parse_u64(value);
             if (!m || *m < 1) {
               throw std::invalid_argument("prefilter: bad min in " + spec);
             }
             cfg.min_class_rules = static_cast<std::size_t>(*m);
           } else {
             throw std::invalid_argument("prefilter: unknown option '" +
                                         std::string(key) + "' in " + spec);
           }
         }
       }
       // Validate the resolver spec eagerly even when nothing spills —
       // on a one-rule set, since some engines reject empty rulesets.
       {
         ruleset::RuleSet probe;
         probe.add(ruleset::Rule::any());
         make_engine(cfg.resolver_spec, std::move(probe));
       }
       return std::make_unique<prefilter::TupleSpacePrefilterEngine>(std::move(rules),
                                                                     std::move(cfg));
     }},
    {"tcam-part",
     {"tcam-part:3", ""},
     "partitioned TCAM with bank power gating; :b = DIP index bits 1..12",
     [](const std::string& spec, std::size_t colon, ruleset::RuleSet rules) -> EnginePtr {
       unsigned bits = 3;
       if (colon != std::string::npos) {
         const auto b = util::parse_u64(std::string_view(spec).substr(colon + 1), 12);
         if (!b || *b < 1) throw std::invalid_argument("bad index bits in spec: " + spec);
         bits = static_cast<unsigned>(*b);
       }
       return std::make_unique<tcam::PartitionedTcamEngine>(
           std::move(rules), tcam::PartitionedTcamConfig{bits});
     }},
};

}  // namespace

EnginePtr make_engine(const std::string& spec, ruleset::RuleSet rules) {
  const std::size_t colon = spec_colon(spec);
  const std::size_t open = spec.find('(');
  const std::string_view kind =
      std::string_view(spec).substr(0, colon < open ? colon : open);
  for (const auto& entry : kSpecTable) {
    if (entry.kind == kind) return entry.build(spec, colon, std::move(rules));
  }
  std::string known;
  for (const auto& entry : kSpecTable) {
    if (!known.empty()) known += ", ";
    known += entry.kind;
  }
  throw std::invalid_argument("unknown engine spec: " + spec + " (known: " + known + ")");
}

std::vector<std::string> known_engine_specs() {
  std::vector<std::string> specs;
  for (const auto& entry : kSpecTable) {
    for (const auto& ex : entry.examples) {
      if (!ex.empty()) specs.emplace_back(ex);
    }
  }
  return specs;
}

std::string engine_spec_help() {
  std::string help;
  for (const auto& entry : kSpecTable) {
    help.append("  ").append(entry.kind);
    help.append(entry.kind.size() < 12 ? 12 - entry.kind.size() : 1, ' ');
    help.append(entry.help).append("\n");
  }
  return help;
}

}  // namespace rfipc::engines
