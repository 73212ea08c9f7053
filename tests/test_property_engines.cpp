// Parameterized property suite: every engine must agree with the golden
// linear search on every ruleset flavour, size, and stride — the
// library's core correctness contract. TEST_P sweeps the cross product.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "engines/common/factory.h"
#include "engines/common/linear_engine.h"
#include "ruleset/generator.h"
#include "ruleset/trace.h"
#include "util/prng.h"

namespace rfipc::engines {
namespace {

using ruleset::GeneratorMode;

struct Param {
  std::string spec;
  GeneratorMode mode;
  std::size_t size;
  double range_fraction;
};

std::string param_name(const testing::TestParamInfo<Param>& info) {
  std::string s = info.param.spec + "_" + ruleset::mode_name(info.param.mode) + "_" +
                  std::to_string(info.param.size) + "_r" +
                  std::to_string(static_cast<int>(info.param.range_fraction * 100));
  for (auto& c : s) {
    if (c == ':' || c == '-' || c == '.') c = '_';
  }
  return s;
}

class EngineAgreement : public testing::TestWithParam<Param> {};

TEST_P(EngineAgreement, MatchesGoldenOverTrace) {
  const auto& p = GetParam();
  ruleset::GeneratorConfig gcfg;
  gcfg.mode = p.mode;
  gcfg.size = p.size;
  gcfg.seed = 1234;
  gcfg.range_fraction = p.range_fraction;
  const auto rules = ruleset::generate(gcfg);

  const auto engine = make_engine(p.spec, rules);
  const LinearSearchEngine golden(rules);

  ruleset::TraceConfig tcfg;
  tcfg.size = 600;
  tcfg.seed = 99;
  for (const auto& t : ruleset::generate_trace(rules, tcfg)) {
    const auto want = golden.classify_tuple(t);
    const auto got = engine->classify_tuple(t);
    ASSERT_EQ(got.best, want.best) << p.spec << " on " << t.to_string();
    if (engine->supports_multi_match()) {
      ASSERT_EQ(got.multi, want.multi) << p.spec << " multi-match on " << t.to_string();
    }
  }
}

std::vector<Param> agreement_params() {
  std::vector<Param> out;
  const char* specs[] = {"stridebv:1",  "stridebv:3",  "stridebv:4",  "stridebv:5",
                         "stridebv:3i", "stridebv:4i", "tcam",        "hicuts",
                         "bv",          "fsbv-hybrid", "tcam-part:3", "tcam-part:6"};
  const GeneratorMode modes[] = {GeneratorMode::kFirewall, GeneratorMode::kAcl,
                                 GeneratorMode::kFeatureFree};
  for (const auto* spec : specs) {
    for (const auto mode : modes) {
      out.push_back({spec, mode, 64, 0.3});
    }
  }
  // Size sweep on the paper's two strides and the TCAM.
  for (const auto* spec : {"stridebv:3", "stridebv:4", "tcam"}) {
    for (const std::size_t n : {1u, 2u, 33u, 200u}) {
      out.push_back({spec, GeneratorMode::kFirewall, n, 0.2});
    }
  }
  // Range-heavy stress (expansion paths).
  for (const auto* spec : {"stridebv:4", "stridebv:4i", "tcam"}) {
    out.push_back({spec, GeneratorMode::kFeatureFree, 48, 0.9});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineAgreement,
                         testing::ValuesIn(agreement_params()), param_name);

// Update property: after any insert/erase sequence, the engine equals a
// fresh golden engine built from the mutated ruleset.
class EngineUpdates : public testing::TestWithParam<std::string> {};

TEST_P(EngineUpdates, StaysConsistentThroughMutations) {
  const auto spec = GetParam();
  auto rules = ruleset::generate_firewall(32, 7);
  const auto engine = make_engine(spec, rules);
  if (!engine->supports_update()) GTEST_SKIP() << spec << " has no update path";

  util::Xoshiro256 rng(2024);
  ruleset::GeneratorConfig extra_cfg;
  extra_cfg.size = 16;
  extra_cfg.seed = 555;
  extra_cfg.default_rule = false;
  const auto extra = ruleset::generate(extra_cfg);

  for (int step = 0; step < 12; ++step) {
    if (rng.chance(1, 2) && rules.size() > 4) {
      const auto idx = rng.below(rules.size());
      ASSERT_TRUE(engine->erase_rule(idx));
      rules.erase(idx);
    } else {
      const auto idx = rng.below(rules.size() + 1);
      const auto& r = extra[rng.below(extra.size())];
      ASSERT_TRUE(engine->insert_rule(idx, r));
      rules.insert(idx, r);
    }
    const LinearSearchEngine golden(rules);
    ruleset::TraceConfig tcfg;
    tcfg.size = 120;
    tcfg.seed = 1000 + step;
    for (const auto& t : ruleset::generate_trace(rules, tcfg)) {
      ASSERT_EQ(engine->classify_tuple(t).best, golden.classify_tuple(t).best)
          << spec << " step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Updatable, EngineUpdates,
                         testing::Values("linear", "tcam", "stridebv:3", "stridebv:4",
                                         "stridebv:4i"),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string s = info.param;
                           for (auto& c : s) {
                             if (c == ':' || c == '-') c = '_';
                           }
                           return s;
                         });

// Stride sweep property: all strides produce identical classifications
// (the stride is an implementation knob, never a semantic one).
class StrideEquivalence : public testing::TestWithParam<unsigned> {};

TEST_P(StrideEquivalence, StrideIsSemanticallyTransparent) {
  const unsigned k = GetParam();
  const auto rules = ruleset::generate_firewall(48, 3);
  const auto base = make_engine("stridebv:4", rules);
  const auto varied = make_engine("stridebv:" + std::to_string(k), rules);
  ruleset::TraceConfig tcfg;
  tcfg.size = 400;
  for (const auto& t : ruleset::generate_trace(rules, tcfg)) {
    ASSERT_EQ(varied->classify_tuple(t).best, base->classify_tuple(t).best)
        << "k=" << k << " " << t.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Strides1To8, StrideEquivalence, testing::Range(1u, 9u));

}  // namespace
}  // namespace rfipc::engines
