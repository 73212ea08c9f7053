// The batch/sharded classification runtime.
//
// ShardedClassifier must be observationally identical to one engine
// over the whole ruleset (bands are contiguous priority slices, so the
// merged result is exact, not approximate), classify_batch must equal
// per-packet classify for EVERY factory spec, and the stats layer must
// count what actually happened.
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "engines/common/factory.h"
#include "engines/common/linear_engine.h"
#include "runtime/sharded_classifier.h"
#include "ruleset/generator.h"
#include "ruleset/trace.h"

namespace rfipc::runtime {
namespace {

using engines::MatchResult;

std::vector<net::HeaderBits> packed_trace(const ruleset::RuleSet& rules,
                                          std::size_t size, std::uint64_t seed) {
  ruleset::TraceConfig cfg;
  cfg.size = size;
  cfg.seed = seed;
  std::vector<net::HeaderBits> out;
  out.reserve(size);
  for (const auto& t : ruleset::generate_trace(rules, cfg)) out.emplace_back(t);
  return out;
}

TEST(ShardedClassifier, AgreesWithGoldenAcrossShardCounts) {
  for (const std::size_t n_rules : {5u, 64u, 257u}) {
    const auto rules = ruleset::generate_firewall(n_rules, 11);
    const engines::LinearSearchEngine golden(rules);
    const auto headers = packed_trace(rules, 300, 21);
    for (const std::size_t shards : {1u, 2u, 4u, 9u}) {
      ShardedConfig cfg;
      cfg.shards = shards;
      cfg.engine_spec = "stridebv:4";
      const ShardedClassifier sc(rules, cfg);
      EXPECT_EQ(sc.rule_count(), rules.size());
      std::vector<MatchResult> got(headers.size());
      sc.classify_batch(headers, got);
      for (std::size_t i = 0; i < headers.size(); ++i) {
        const auto want = golden.classify(headers[i]);
        ASSERT_EQ(got[i].best, want.best) << shards << " shards, packet " << i;
        ASSERT_EQ(got[i].multi, want.multi) << shards << " shards, packet " << i;
      }
    }
  }
}

TEST(ShardedClassifier, SinglePacketPathMatchesBatchPath) {
  const auto rules = ruleset::generate_firewall(96, 5);
  ShardedConfig cfg;
  cfg.shards = 4;
  const ShardedClassifier sc(rules, cfg);
  const auto headers = packed_trace(rules, 100, 6);
  std::vector<MatchResult> batch(headers.size());
  sc.classify_batch(headers, batch);
  for (std::size_t i = 0; i < headers.size(); ++i) {
    const auto one = sc.classify(headers[i]);
    EXPECT_EQ(one.best, batch[i].best);
    EXPECT_EQ(one.multi, batch[i].multi);
  }
}

TEST(ShardedClassifier, WorksWithEveryEngineSpec) {
  const auto rules = ruleset::generate_firewall(48, 7);
  const engines::LinearSearchEngine golden(rules);
  const auto headers = packed_trace(rules, 120, 8);
  for (const auto& spec : engines::known_engine_specs()) {
    ShardedConfig cfg;
    cfg.shards = 3;
    cfg.engine_spec = spec;
    const ShardedClassifier sc(rules, cfg);
    std::vector<MatchResult> got(headers.size());
    sc.classify_batch(headers, got);
    for (std::size_t i = 0; i < headers.size(); ++i) {
      ASSERT_EQ(got[i].best, golden.classify(headers[i]).best) << spec;
    }
  }
}

TEST(ShardedClassifier, ShardCountClampedToRules) {
  const auto rules = ruleset::generate_firewall(3, 2);
  ShardedConfig cfg;
  cfg.shards = 16;
  const ShardedClassifier sc(rules, cfg);
  EXPECT_EQ(sc.shard_count(), 3u);
  EXPECT_EQ(sc.name(), "Sharded[3x stridebv:4]");
  for (std::size_t s = 0; s < sc.shard_count(); ++s) EXPECT_EQ(sc.shard_size(s), 1u);
}

TEST(ShardedClassifier, UpdatesRouteToOwningShardAndStayCorrect) {
  auto mirror = ruleset::generate_firewall(64, 13);
  ShardedConfig cfg;
  cfg.shards = 4;
  ShardedClassifier sc(mirror, cfg);

  ruleset::GeneratorConfig ncfg;
  ncfg.size = 12;
  ncfg.seed = 31;
  ncfg.default_rule = false;
  const auto fresh = ruleset::generate(ncfg);
  // Insertions across every band, including both edges (the last point
  // is an append at rule_count()).
  const std::size_t points[] = {0, 15, 16, 33, 63, 69};
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(sc.insert_rule(points[i], fresh[i]));
    mirror.insert(points[i], fresh[i]);
  }
  ASSERT_TRUE(sc.erase_rule(40));
  mirror.erase(40);
  ASSERT_TRUE(sc.erase_rule(0));
  mirror.erase(0);
  EXPECT_EQ(sc.rule_count(), mirror.size());
  EXPECT_EQ(sc.stats_snapshot().updates, 8u);

  const engines::LinearSearchEngine golden(mirror);
  const auto headers = packed_trace(mirror, 250, 14);
  std::vector<MatchResult> got(headers.size());
  sc.classify_batch(headers, got);
  for (std::size_t i = 0; i < headers.size(); ++i) {
    const auto want = golden.classify(headers[i]);
    ASSERT_EQ(got[i].best, want.best) << i;
    ASSERT_EQ(got[i].multi, want.multi) << i;
  }
}

// Regression: erase_rule used to refuse to empty a shard. It must now
// collapse the emptied band instead, stay correct across the shrink,
// keep draining down to zero rules, and re-seed on the next insert.
TEST(ShardedClassifier, ErasingLastRuleOfBandCollapsesIt) {
  auto mirror = ruleset::generate_firewall(4, 3);
  ShardedConfig cfg;
  cfg.shards = 4;
  ShardedClassifier sc(mirror, cfg);
  ASSERT_EQ(sc.shard_count(), 4u);

  ASSERT_TRUE(sc.erase_rule(2));  // band of one rule -> collapses
  mirror.erase(2);
  EXPECT_EQ(sc.shard_count(), 3u);
  EXPECT_EQ(sc.rule_count(), mirror.size());

  const engines::LinearSearchEngine golden(mirror);
  const auto headers = packed_trace(mirror, 80, 9);
  for (const auto& h : headers) {
    ASSERT_EQ(sc.classify(h).best, golden.classify(h).best);
  }

  // Drain to empty: the classifier keeps serving (with no matches).
  while (sc.rule_count() > 0) ASSERT_TRUE(sc.erase_rule(0));
  EXPECT_EQ(sc.shard_count(), 0u);
  EXPECT_FALSE(sc.classify(headers[0]).has_match());
  EXPECT_FALSE(sc.erase_rule(0));  // nothing left to erase

  // Inserting into a drained classifier re-seeds a shard.
  ASSERT_TRUE(sc.insert_rule(0, ruleset::Rule::any()));
  EXPECT_EQ(sc.shard_count(), 1u);
  EXPECT_EQ(sc.rule_count(), 1u);
  EXPECT_EQ(sc.classify(headers[0]).best, 0u);
}

TEST(ShardedClassifier, StatsCountPacketsBatchesAndMatches) {
  const auto rules = ruleset::generate_firewall(32, 17);  // has default rule
  ShardedConfig cfg;
  cfg.shards = 2;
  // Shard `batches` counts engine calls, one per lane slice that
  // reaches the band: one lane makes that exactly one call per band
  // per classify_batch (both bands see traffic on this trace).
  cfg.core_budget = 1;
  const ShardedClassifier sc(rules, cfg);
  const auto headers = packed_trace(rules, 64, 18);
  std::vector<MatchResult> out(headers.size());
  sc.classify_batch(headers, out);
  sc.classify_batch(headers, out);
  auto snap = sc.stats_snapshot();
  EXPECT_EQ(snap.packets, 128u);
  EXPECT_EQ(snap.batches, 2u);
  EXPECT_EQ(snap.matches, 128u);  // default rule catches everything
  ASSERT_EQ(snap.shards.size(), 2u);
  for (const auto& sh : snap.shards) {
    EXPECT_EQ(sh.batches, 2u);
    EXPECT_LE(sh.p50_ns, sh.p99_ns);
    EXPECT_GT(sh.p99_ns, 0u);
  }
  EXPECT_FALSE(snap.to_string().empty());
  sc.reset_stats();
  EXPECT_EQ(sc.stats_snapshot().packets, 0u);
}

// Regression for the scaling inversion, and coverage for the slice
// walk: shards > cores must degrade to fewer lanes (down to the inline
// walk), never oversubscribe, and stay exactly correct for every lane
// count, slice boundary (batches below, at and above kMinLaneRows),
// band count, match mode and flow-cache setting.
TEST(ShardedClassifier, ShardsExceedingCoreBudgetStayCorrect) {
  const auto rules = ruleset::generate_firewall(128, 29);
  const engines::LinearSearchEngine golden(rules);
  ruleset::TraceConfig tcfg;
  tcfg.size = 1000;
  tcfg.seed = 30;
  const auto tuples = ruleset::generate_trace(rules, tcfg);
  std::vector<net::HeaderBits> headers;
  std::vector<MatchResult> want;
  for (const auto& t : tuples) {
    headers.emplace_back(t);
    want.push_back(golden.classify(headers.back()));
    const auto first = rules.first_match(t);
    ASSERT_EQ(want.back().best, first.value_or(MatchResult::kNoMatch));
    if (first) want.back().action = rules[*first].action;
  }
  const std::size_t sizes[] = {1, kMinLaneRows - 1, kMinLaneRows, kMinLaneRows + 1,
                               63, 200, 1000};
  // Core budgets: a 1-core box (fully inline), a 2-core box
  // (caller + 1 worker), and lane counts below and above the shard
  // count (16 clamps to one lane per shard).
  for (const std::size_t budget : {1u, 2u, 3u, 16u}) {
    for (const std::size_t shards : {2u, 4u, 9u}) {
      for (const std::size_t cache : {0u, 4096u}) {
        ShardedConfig cfg;
        cfg.shards = shards;
        cfg.core_budget = budget;
        cfg.flow_cache_capacity = cache;
        const ShardedClassifier sc(rules, cfg);
        for (const bool multi : {false, true}) {
          for (const std::size_t size : sizes) {
            std::vector<MatchResult> got(size);
            // The second round reuses pooled scratch (and, with the
            // cache on, is answered partly from it).
            for (int round = 0; round < 2; ++round) {
              sc.classify_batch({headers.data(), size}, got,
                                engines::BatchOptions{.want_multi = multi});
              for (std::size_t i = 0; i < size; ++i) {
                const auto where = ::testing::Message()
                                   << "budget=" << budget << " shards=" << shards
                                   << " cache=" << cache << " multi=" << multi
                                   << " size=" << size << " round=" << round
                                   << " packet " << i;
                ASSERT_EQ(got[i].best, want[i].best) << where;
                ASSERT_EQ(got[i].action, want[i].action) << where;
                if (multi) {
                  ASSERT_EQ(got[i].multi, want[i].multi) << where;
                } else {
                  ASSERT_TRUE(got[i].multi.empty()) << where;
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(ShardedClassifier, WorkerDigestsAppearInStats) {
  const auto rules = ruleset::generate_firewall(64, 41);
  ShardedConfig cfg;
  cfg.shards = 4;
  cfg.core_budget = 3;  // caller lane + 2 workers
  const ShardedClassifier sc(rules, cfg);
  const auto headers = packed_trace(rules, 256, 42);
  std::vector<MatchResult> out(headers.size());
  // 256 packets split over 3 lanes, lanes 1 and 2 offered to the
  // workers. The caller takes back every lane no worker has started by
  // the time its own is done, which on one busy CPU can be every lane
  // for a while: keep classifying until a worker has taken one.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  StatsSnapshot snap;
  std::uint64_t worker_tasks = 0;
  for (int i = 0; i < 8 || (worker_tasks == 0 && std::chrono::steady_clock::now() < deadline);
       ++i) {
    sc.classify_batch(headers, out);
    snap = sc.stats_snapshot();
    worker_tasks = 0;
    for (const auto& w : snap.workers) worker_tasks += w.tasks;
  }

  ASSERT_EQ(snap.workers.size(), 2u);
  EXPECT_GT(worker_tasks, 0u);
  EXPECT_NE(snap.to_json().find("\"workers\""), std::string::npos);
  EXPECT_NE(snap.to_string().find("worker0"), std::string::npos);
  // Shard engines report their footprint; the snapshot aggregates it
  // and the JSON (== the STATS wire reply body) carries it.
  EXPECT_GT(snap.memory_bytes, 0u);
  EXPECT_NE(snap.to_json().find("\"memory_bytes\""), std::string::npos);

  // A 1-lane classifier reports no worker digests.
  ShardedConfig serial_cfg;
  serial_cfg.shards = 4;
  serial_cfg.core_budget = 1;
  const ShardedClassifier serial(rules, serial_cfg);
  serial.classify_batch(headers, out);
  EXPECT_TRUE(serial.stats_snapshot().workers.empty());
}

TEST(LatencyHistogramTest, QuantilesAreMonotoneAndBucketed) {
  LatencyHistogram h;
  for (std::uint64_t ns = 1; ns <= 1000; ++ns) h.record(ns);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_LE(h.quantile_ns(0.5), h.quantile_ns(0.99));
  // p50 of 1..1000 is ~500 -> bucket [512,1024) midpoint 768; log2
  // buckets are coarse but must land within 2x.
  EXPECT_GE(h.quantile_ns(0.5), 256u);
  EXPECT_LE(h.quantile_ns(0.5), 1024u);
}

// Satellite: classify_batch must equal per-packet classify for every
// registered spec — both the overridden fast paths and the default.
TEST(ClassifyBatch, EquivalentToPerPacketForEverySpec) {
  const auto rules = ruleset::generate_firewall(56, 23);
  const auto headers = packed_trace(rules, 150, 24);
  for (const auto& spec : engines::known_engine_specs()) {
    const auto engine = engines::make_engine(spec, rules);
    std::vector<MatchResult> batch(headers.size());
    engine->classify_batch(headers, batch);
    for (std::size_t i = 0; i < headers.size(); ++i) {
      const auto want = engine->classify(headers[i]);
      ASSERT_EQ(batch[i].best, want.best) << spec << " packet " << i;
      if (engine->supports_multi_match()) {
        ASSERT_EQ(batch[i].multi, want.multi) << spec << " packet " << i;
      }
    }
  }
}

TEST(ClassifyBatch, RejectsMismatchedSpans) {
  const auto rules = ruleset::RuleSet::table1_example();
  const auto engine = engines::make_engine("stridebv:4", rules);
  const auto headers = packed_trace(rules, 4, 1);
  std::vector<MatchResult> results(3);
  EXPECT_THROW(engine->classify_batch(headers, results), std::invalid_argument);
}

}  // namespace
}  // namespace rfipc::runtime
