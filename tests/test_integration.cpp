// Integration tests: full paths a downstream user exercises — file in,
// engines built, traffic classified, models reported — all modules
// cooperating.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "rfipc.h"

namespace rfipc {
namespace {

TEST(Integration, FileToClassificationPipeline) {
  // Write a ruleset to disk, load it, build every engine, classify.
  const std::string path = "integration_rules.tmp";
  {
    std::ofstream f(path);
    f << ruleset::RuleSet::table1_example().to_text();
  }
  const auto rules = ruleset::load_ruleset(path);
  std::remove(path.c_str());
  ASSERT_EQ(rules.size(), 6u);

  const engines::LinearSearchEngine golden(rules);
  for (const auto& spec : engines::known_engine_specs()) {
    const auto engine = engines::make_engine(spec, rules);
    ruleset::TraceConfig cfg;
    cfg.size = 300;
    for (const auto& t : ruleset::generate_trace(rules, cfg)) {
      EXPECT_EQ(engine->classify_tuple(t).best, golden.classify_tuple(t).best) << spec;
    }
  }
}

TEST(Integration, ClassBenchFileRoundTripThroughEngines) {
  const auto original = ruleset::generate_firewall(96, 11);
  const std::string path = "integration_cb.tmp";
  {
    std::ofstream f(path);
    f << ruleset::to_classbench(original);
  }
  const auto rules = ruleset::load_ruleset(path);  // auto-detects '@'
  std::remove(path.c_str());
  ASSERT_EQ(rules.size(), original.size());

  // ClassBench drops actions but preserves match semantics.
  const engines::tcam::TcamEngine tcam(rules);
  const engines::stridebv::StrideBVEngine sbv(rules, {4});
  ruleset::TraceConfig cfg;
  cfg.size = 500;
  for (const auto& t : ruleset::generate_trace(rules, cfg)) {
    EXPECT_EQ(tcam.classify_tuple(t).best, sbv.classify_tuple(t).best);
  }
}

TEST(Integration, FirewallDecisionsEnforceActions) {
  const auto rules = ruleset::generate_firewall(128, 21);
  const auto engine = engines::make_engine("stridebv:4", rules);
  ruleset::TraceConfig cfg;
  cfg.size = 2000;
  std::size_t dropped = 0;
  std::size_t forwarded = 0;
  for (const auto& t : ruleset::generate_trace(rules, cfg)) {
    const auto r = engine->classify_tuple(t);
    ASSERT_TRUE(r.has_match());  // default rule guarantees a decision
    if (rules[r.best].action.kind == ruleset::Action::Kind::kDrop) {
      ++dropped;
    } else {
      ++forwarded;
    }
  }
  EXPECT_EQ(dropped + forwarded, 2000u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(forwarded, 0u);
}

TEST(Integration, ParallelBatchEqualsSequential) {
  const auto rules = ruleset::generate_firewall(64, 31);
  const auto engine = engines::make_engine("tcam", rules);
  ruleset::TraceConfig cfg;
  cfg.size = 1000;
  const auto trace = ruleset::generate_trace(rules, cfg);
  std::vector<net::HeaderBits> packets;
  for (const auto& t : trace) packets.emplace_back(t);

  std::vector<std::size_t> sequential(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    sequential[i] = engine->classify(packets[i]).best;
  }
  std::vector<std::size_t> parallel(packets.size());
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < packets.size(); i += kThreads) {
        parallel[i] = engine->classify(packets[i]).best;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(parallel, sequential);
}

TEST(Integration, HardwareReportForRealRuleset) {
  // The design-explorer path: real ruleset -> entry count -> models.
  const auto rules = ruleset::generate_firewall(256, 41);
  const auto features = ruleset::analyze(rules);
  const engines::tcam::TcamEngine tcam(rules);
  EXPECT_EQ(features.tcam_entries, tcam.entry_count());

  const auto device = fpga::virtex7_xc7vx1140t();
  const fpga::DesignPoint dp{fpga::EngineKind::kStrideBVDistRam,
                             features.tcam_entries, 4, true, true};
  const auto report = fpga::analyze(dp, device);
  EXPECT_TRUE(report.fits);
  EXPECT_GT(report.timing.throughput_gbps, 100.0);
  EXPECT_EQ(report.resources.memory_bits,
            26ull * 16 * features.tcam_entries);
}

TEST(Integration, CycleSimAgreesWithFunctionalAndModels) {
  ruleset::GeneratorConfig gcfg;
  gcfg.size = 64;
  gcfg.range_fraction = 0.0;
  const auto rules = ruleset::generate(gcfg);
  engines::stridebv::StrideBVEngine engine(rules, {4});

  ruleset::TraceConfig tcfg;
  tcfg.size = 100;
  std::vector<net::HeaderBits> packets;
  for (const auto& t : ruleset::generate_trace(rules, tcfg)) packets.emplace_back(t);

  const auto sim = sim::simulate_stridebv(engine, packets, 2);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(sim.best[i], engine.classify(packets[i]).best);
  }
  const fpga::DesignPoint dp{fpga::EngineKind::kStrideBVDistRam, rules.size(), 4,
                             true, true};
  EXPECT_EQ(sim.stats.latency_cycles, fpga::pipeline_latency_cycles(dp));
}

TEST(Integration, EndToEndUpdateScenario) {
  // Operator adds a block rule at the top, later removes it.
  auto rules = ruleset::RuleSet::table1_example();
  const auto engine = engines::make_engine("stridebv:4", rules);

  net::FiveTuple attacker;
  attacker.src_ip = *net::Ipv4Addr::parse("203.0.113.66");
  attacker.dst_ip = *net::Ipv4Addr::parse("192.168.0.1");
  attacker.dst_port = 443;
  attacker.protocol = 6;

  const auto before = engine->classify_tuple(attacker);
  ASSERT_TRUE(before.has_match());
  EXPECT_EQ(before.best, rules.size() - 1);  // only the catch-all

  auto block = *ruleset::Rule::parse("203.0.113.0/24 * * * * DROP");
  ASSERT_TRUE(engine->insert_rule(0, block));
  EXPECT_EQ(engine->classify_tuple(attacker).best, 0u);

  ASSERT_TRUE(engine->erase_rule(0));
  EXPECT_EQ(engine->classify_tuple(attacker).best, rules.size() - 1);
}

}  // namespace
}  // namespace rfipc
