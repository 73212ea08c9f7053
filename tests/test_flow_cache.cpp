// Flow-cache correctness: unit behavior of flow::FlowCache (epoch
// invalidation, straggler rejection, CLOCK eviction, torn-free
// lock-free probes) plus the coherence property the runtime wiring
// must uphold — a cached decision NEVER survives a rule insert/erase
// once the update's completion is reported. The concurrent sections
// hammer the cache and a cached ShardedClassifier from reader threads
// while a writer streams inserts or updates (run under TSan via
// scripts/check.sh tsan); every observed result must be consistent
// with some prefix of the update sequence, and after the final update
// completes every read must reflect the final ruleset exactly.
#include "flow/flow_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "net/header.h"
#include "runtime/sharded_classifier.h"
#include "ruleset/generator.h"

namespace rfipc::flow {
namespace {

using engines::MatchResult;

net::FiveTuple tuple(std::uint32_t sip, std::uint16_t sport = 1234) {
  net::FiveTuple t;
  t.src_ip.value = sip;
  t.dst_ip.value = 0x08080808;
  t.src_port = sport;
  t.dst_port = 80;
  t.protocol = 6;
  return t;
}

MatchResult result_with_best(std::size_t best, std::size_t rules) {
  MatchResult r;
  r.reset_for(rules);
  r.best = best;
  if (best != MatchResult::kNoMatch) r.multi.set(best);
  return r;
}

TEST(FlowCache, CapacityRoundsUpToPowerOfTwoSegments) {
  EXPECT_EQ(FlowCache(0).capacity(), 64u);
  EXPECT_EQ(FlowCache(1).capacity(), 64u);
  EXPECT_EQ(FlowCache(65).capacity(), 128u);
  EXPECT_EQ(FlowCache(4096).capacity(), 4096u);
}

TEST(FlowCache, InsertThenLookupHits) {
  FlowCache cache(64);
  const net::HeaderBits key(tuple(0x0A000001));
  MatchResult out;
  EXPECT_FALSE(cache.lookup(key, out));
  MatchResult in = result_with_best(3, 8);
  in.action = ruleset::Action::forward(7);
  cache.insert(key, cache.epoch(), in);
  ASSERT_TRUE(cache.lookup(key, out));
  EXPECT_EQ(out.best, 3u);
  EXPECT_EQ(out.action, ruleset::Action::forward(7));
  EXPECT_TRUE(out.multi.empty());  // entries hold {best, action} only
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
}

TEST(FlowCache, InvalidateKillsEveryEntryInO1) {
  FlowCache cache(256);
  std::vector<net::HeaderBits> keys;
  for (std::uint32_t i = 0; i < 32; ++i) {
    keys.emplace_back(tuple(0x0A000000 + i));
    cache.insert(keys.back(), cache.epoch(), result_with_best(i, 64));
  }
  cache.invalidate();
  MatchResult out;
  for (const auto& k : keys) EXPECT_FALSE(cache.lookup(k, out));
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(FlowCache, StragglerInsertWithOldEpochIsRejected) {
  FlowCache cache(64);
  const net::HeaderBits key(tuple(0x0A000001));
  const std::uint64_t before = cache.epoch();
  cache.invalidate();  // a publication raced with the slow path
  cache.insert(key, before, result_with_best(0, 4));
  MatchResult out;
  EXPECT_FALSE(cache.lookup(key, out));
}

TEST(FlowCache, RefreshingAKeyIsNotAnEviction) {
  FlowCache cache(64);
  const net::HeaderBits key(tuple(0x0A000001));
  cache.insert(key, cache.epoch(), result_with_best(1, 8));
  cache.insert(key, cache.epoch(), result_with_best(2, 8));
  MatchResult out;
  ASSERT_TRUE(cache.lookup(key, out));
  EXPECT_EQ(out.best, 2u);  // the refresh won
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(FlowCache, OverfillEvictsButNeverLies) {
  // Far more distinct flows than slots: entries get displaced, but a
  // hit must still return exactly what was inserted for that key.
  FlowCache cache(64);
  std::vector<net::HeaderBits> keys;
  for (std::uint32_t i = 0; i < 512; ++i) {
    keys.emplace_back(tuple(0x0A000000 + i, static_cast<std::uint16_t>(i)));
    cache.insert(keys.back(), cache.epoch(), result_with_best(i, 512));
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  MatchResult out;
  std::size_t live = 0;
  for (std::uint32_t i = 0; i < 512; ++i) {
    if (cache.lookup(keys[i], out)) {
      ++live;
      EXPECT_EQ(out.best, i);
    }
  }
  EXPECT_GT(live, 0u);
  EXPECT_LE(live, cache.capacity());
}

TEST(FlowCache, ReferencedEntrySurvivesClockSweeps) {
  // A hit sets the entry's referenced flag; a sweep clears it and moves
  // on to an unreferenced slot. Cold entries are never hit, so a key hit
  // between every pair of inserts is never the CLOCK victim.
  FlowCache cache(64);
  const net::HeaderBits hot(tuple(0x0A0000FF, 9));
  cache.insert(hot, cache.epoch(), result_with_best(1, 8));
  MatchResult out;
  for (std::uint32_t i = 0; i < 512; ++i) {
    ASSERT_TRUE(cache.lookup(hot, out)) << "hot key evicted after " << i << " inserts";
    cache.insert(net::HeaderBits(tuple(0x0B000000 + i, static_cast<std::uint16_t>(i))),
                 cache.epoch(), result_with_best(2, 8));
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

// Readers probe while a writer keeps rewriting the same slots: every hit
// must return a {best, action} pair that one insert wrote for that key.
// best encodes (key, version) and action's port is a function of both,
// so a hit that mixes two inserts' fields, or another key's, is caught.
TEST(FlowCache, ConcurrentProbesNeverReturnATornEntry) {
  constexpr std::size_t kKeys = 16;
  constexpr std::size_t kRefreshes = 200000;
  constexpr std::size_t kReaders = 3;
  constexpr std::size_t kVersionSpan = std::size_t{1} << 20;
  const auto port_of = [](std::size_t key, std::size_t version) {
    return static_cast<std::uint16_t>((key * 40503 + version * 7) & 0xffff);
  };
  FlowCache cache(64);
  std::vector<net::HeaderBits> keys;
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    keys.emplace_back(tuple(0x0A000000 + k, static_cast<std::uint16_t>(k)));
  }
  const std::uint64_t epoch = cache.epoch();  // nothing invalidates

  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> writing{0};  // the key the writer rewrites next
  std::atomic<bool> done{false};
  std::vector<std::uint64_t> hits(kReaders, 0);
  std::vector<std::uint64_t> torn(kReaders, 0);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      MatchResult out;
      started.fetch_add(1, std::memory_order_acq_rel);
      for (std::size_t i = t; !done.load(std::memory_order_acquire); ++i) {
        // Mostly chase the slot under rewrite, where a tear can happen.
        const std::size_t k =
            i % 4 == 0 ? i / 4 % kKeys : writing.load(std::memory_order_relaxed);
        if (!cache.probe(keys[k], epoch, out)) continue;
        ++hits[t];
        const std::size_t version = out.best % kVersionSpan;
        if (out.best / kVersionSpan != k ||
            out.action != ruleset::Action::forward(port_of(k, version)) ||
            !out.multi.empty()) {
          ++torn[t];
        }
      }
    });
  }
  while (started.load(std::memory_order_acquire) < kReaders) std::this_thread::yield();
  for (std::size_t n = 0; n < kRefreshes; ++n) {
    const std::size_t k = n % kKeys;
    const std::size_t version = n / kKeys;
    writing.store(k, std::memory_order_relaxed);
    MatchResult r;
    r.best = k * kVersionSpan + version;
    r.action = ruleset::Action::forward(port_of(k, version));
    cache.insert(keys[k], epoch, r);
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  std::uint64_t total_hits = 0;
  std::uint64_t total_torn = 0;
  for (std::size_t t = 0; t < kReaders; ++t) {
    total_hits += hits[t];
    total_torn += torn[t];
  }
  EXPECT_GT(total_hits, 0u);
  EXPECT_EQ(total_torn, 0u) << "torn pairs out of " << total_hits << " hits";
}

// ---------------------------------------------------------------------------
// Runtime wiring: the coherence contract.

constexpr std::size_t kBase = 6;

ruleset::RuleSet miss_rules() {
  // /32 rules pinned to addresses the probe never carries.
  ruleset::RuleSet rules;
  for (std::size_t i = 0; i < kBase; ++i) {
    ruleset::Rule r;
    r.src_ip = {{0x0B000000u + static_cast<std::uint32_t>(i)}, 32};
    rules.add(r);
  }
  return rules;
}

runtime::ShardedConfig cached_config() {
  runtime::ShardedConfig cfg;
  cfg.shards = 2;
  cfg.engine_spec = "linear";
  cfg.flow_cache_capacity = 1024;
  return cfg;
}

/// The cache serves best-only callers, as capture and the wire server
/// are; a multi-match caller on this (multi-capable) classifier skips it.
constexpr engines::BatchOptions kBestOnly{.want_multi = false};

MatchResult classify_best(const runtime::ShardedClassifier& sc,
                          const net::HeaderBits& header) {
  MatchResult r;
  sc.classify_batch({&header, 1}, {&r, 1}, kBestOnly);
  return r;
}

TEST(FlowCacheRuntime, HitShortCircuitsTheShardFanOut) {
  runtime::ShardedClassifier sc(miss_rules(), cached_config());
  std::vector<net::HeaderBits> headers(32, net::HeaderBits(tuple(0xC0A80001)));
  std::vector<MatchResult> results(headers.size());
  sc.classify_batch(headers, results, kBestOnly);  // cold: fan-out runs, cache fills
  const auto before = sc.stats_snapshot();
  std::uint64_t shard_batches_before = 0;
  for (const auto& s : before.shards) shard_batches_before += s.batches;
  EXPECT_GT(shard_batches_before, 0u);
  // A cache-hit-heavy burst: the per-shard batch counters must not
  // move, because no shard ran.
  for (int i = 0; i < 50; ++i) sc.classify_batch(headers, results, kBestOnly);
  const auto after = sc.stats_snapshot();
  std::uint64_t shard_batches_after = 0;
  for (const auto& s : after.shards) shard_batches_after += s.batches;
  EXPECT_EQ(shard_batches_after, shard_batches_before);
  EXPECT_GE(after.cache_hits, 50u * headers.size());
  EXPECT_EQ(after.packets, 51u * headers.size());
}

TEST(FlowCacheRuntime, NoCachedDecisionSurvivesInsertOrErase) {
  runtime::ShardedClassifier sc(miss_rules(), cached_config());
  const net::HeaderBits probe(tuple(0xC0A80001));

  // Warm the cache with the pre-update decision.
  EXPECT_FALSE(classify_best(sc, probe).has_match());
  EXPECT_FALSE(classify_best(sc, probe).has_match());
  ASSERT_GE(sc.stats_snapshot().cache_hits, 1u);

  // Insert a catch-all at the top: the completed update must be visible
  // on the very next read — a stale cached miss here is the bug.
  ASSERT_TRUE(sc.insert_rule(0, ruleset::Rule::any()));
  EXPECT_EQ(classify_best(sc, probe).best, 0u);
  EXPECT_EQ(classify_best(sc, probe).best, 0u);  // and the refreshed hit agrees

  // Erase it again: the cached best=0 decision must die with it.
  ASSERT_TRUE(sc.erase_rule(0));
  EXPECT_FALSE(classify_best(sc, probe).has_match());
  EXPECT_GE(sc.stats_snapshot().cache_invalidations, 2u);
}

TEST(FlowCacheRuntime, BatchPathUsesAndRefillsTheCache) {
  runtime::ShardedClassifier sc(miss_rules(), cached_config());
  std::vector<net::HeaderBits> headers;
  for (std::uint32_t i = 0; i < 16; ++i) {
    // 4 distinct flows, each repeated 4x — a skewed trace in miniature.
    headers.emplace_back(tuple(0xC0A80000 + i % 4));
  }
  std::vector<MatchResult> results(headers.size());
  // Cold batch: every lookup happens before any insert, so all 16 miss
  // (duplicates within one batch are not deduplicated).
  sc.classify_batch(headers, results, kBestOnly);
  auto snap = sc.stats_snapshot();
  EXPECT_EQ(snap.cache_misses, 16u);
  EXPECT_EQ(snap.cache_hits, 0u);
  // Warm batch: the 4 distinct flows are all cached now.
  sc.classify_batch(headers, results, kBestOnly);
  snap = sc.stats_snapshot();
  EXPECT_EQ(snap.cache_misses, 16u);
  EXPECT_EQ(snap.cache_hits, 16u);

  // After an update, the whole batch takes the slow path once.
  ASSERT_TRUE(sc.insert_rule(0, ruleset::Rule::any()));
  sc.classify_batch(headers, results, kBestOnly);
  for (const auto& r : results) EXPECT_EQ(r.best, 0u);
}

TEST(FlowCacheRuntime, BestOnlyEntriesAreNotServedToMultiCallers) {
  ruleset::RuleSet rules = miss_rules();
  ruleset::Rule catch_all = ruleset::Rule::any();
  catch_all.action = ruleset::Action::forward(5);
  rules.add(catch_all);
  runtime::ShardedClassifier sc(rules, cached_config());
  ASSERT_TRUE(sc.supports_multi_match());
  std::vector<net::HeaderBits> headers(4, net::HeaderBits(tuple(0xC0A80001)));
  std::vector<MatchResult> results(headers.size());
  // Seed the cache from a best-only caller (empty multi vectors).
  sc.classify_batch(headers, results, kBestOnly);
  EXPECT_TRUE(results[0].multi.empty());
  // A multi-wanting caller must get a full-width vector, not the
  // cached stub: it skips the probe, so its packets count as misses.
  const auto before = sc.stats_snapshot();
  sc.classify_batch(headers, results);
  for (const auto& r : results) EXPECT_EQ(r.multi.size(), sc.rule_count());
  auto after = sc.stats_snapshot();
  EXPECT_EQ(after.cache_hits, before.cache_hits);
  EXPECT_EQ(after.cache_misses, before.cache_misses + headers.size());
  EXPECT_EQ(after.cache_hits + after.cache_misses, after.packets);

  // The multi caller's results refill {best, action}: a fresh epoch's
  // first best-only caller is served them.
  ASSERT_TRUE(sc.insert_rule(0, miss_rules()[0]));
  sc.classify_batch(headers, results);
  const auto refilled = sc.stats_snapshot();
  sc.classify_batch(headers, results, kBestOnly);
  after = sc.stats_snapshot();
  EXPECT_EQ(after.cache_hits, refilled.cache_hits + headers.size());
  for (const auto& r : results) {
    EXPECT_EQ(r.best, kBase + 1);
    EXPECT_EQ(r.action, ruleset::Action::forward(5));
    EXPECT_TRUE(r.multi.empty());
  }
}

// Readers race a writer streaming synchronous updates. During the race
// any prefix-consistent result is legal (hits may briefly lag behind an
// in-flight publication), but torn state never is — and once the writer
// is done, reads must see the final ruleset exactly. Multi-match
// readers (classify() and default classify_batch) bypass the cache;
// best-only readers go through it.
TEST(FlowCacheRuntime, ConcurrentReadersNeverSeeTornOrPostUpdateStaleState) {
  runtime::ShardedClassifier sc(miss_rules(), cached_config());
  const net::HeaderBits probe(tuple(0xC0A80001));
  constexpr std::size_t kVersions = 24;
  constexpr std::size_t kMultiReaders = 2;
  constexpr std::size_t kBestReaders = 2;
  constexpr std::size_t kReaders = kMultiReaders + kBestReaders;
  // Version v appends a catch-all forwarding to port_of(v). The first
  // appended rule (index kBase) always answers `best` while any is
  // present, so a correct result pairs best kBase with port_of(0), and
  // no match with drop.
  const auto port_of = [](std::size_t v) { return static_cast<std::uint16_t>(100 + v); };
  const ruleset::Action top = ruleset::Action::forward(port_of(0));

  std::atomic<bool> done{false};
  std::vector<std::string> errors(kReaders);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kMultiReaders; ++t) {
    readers.emplace_back([&, t] {
      std::vector<net::HeaderBits> batch_in(4, probe);
      std::vector<MatchResult> batch_out(batch_in.size());
      std::uint64_t iterations = 0;
      while (!done.load(std::memory_order_acquire) && errors[t].empty()) {
        MatchResult r;
        if (++iterations % 4 == 0) {
          sc.classify_batch(batch_in, batch_out);
          r = batch_out[0];
        } else {
          r = sc.classify(probe);
        }
        // Prefix consistency: k appended any() rules matched => multi
        // holds exactly bits [kBase, kBase + k) and best == kBase.
        const std::size_t total = r.multi.size();
        if (total < kBase || total > kBase + kVersions) {
          errors[t] = "multi size " + std::to_string(total);
          break;
        }
        const std::size_t k = total - kBase;
        if (r.multi.count() != k ||
            (k > 0 && r.multi.first_set() != kBase) ||
            r.best != (k > 0 ? kBase : MatchResult::kNoMatch) ||
            r.action != (k > 0 ? top : ruleset::Action::drop())) {
          errors[t] = "torn result at k=" + std::to_string(k);
        }
      }
    });
  }
  for (std::size_t t = kMultiReaders; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::vector<net::HeaderBits> batch_in(4, probe);
      std::vector<MatchResult> batch_out(batch_in.size());
      while (!done.load(std::memory_order_acquire) && errors[t].empty()) {
        sc.classify_batch(batch_in, batch_out, kBestOnly);
        for (const MatchResult& r : batch_out) {
          const bool matched = r.has_match();
          if ((matched && r.best != kBase) || !r.multi.empty() ||
              r.action != (matched ? top : ruleset::Action::drop())) {
            errors[t] = "torn best-only result: best " + std::to_string(r.best) +
                        " action " + r.action.to_string();
            break;
          }
        }
      }
    });
  }

  for (std::size_t v = 0; v < kVersions; ++v) {
    ruleset::Rule rule = ruleset::Rule::any();
    rule.action = ruleset::Action::forward(port_of(v));
    ASSERT_TRUE(sc.insert_rule(kBase + v, rule));
  }
  for (std::size_t v = kVersions; v > 0; --v) {
    ASSERT_TRUE(sc.erase_rule(kBase + v - 1));
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  for (std::size_t t = 0; t < kReaders; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "reader " << t << ": " << errors[t];
  }

  // Every update has completed: no cached decision from any earlier
  // version may be served, from either lookup path.
  EXPECT_FALSE(sc.classify(probe).has_match());
  std::vector<net::HeaderBits> batch_in(8, probe);
  std::vector<MatchResult> batch_out(batch_in.size());
  sc.classify_batch(batch_in, batch_out);
  for (const auto& r : batch_out) {
    EXPECT_FALSE(r.has_match());
    EXPECT_EQ(r.multi.size(), kBase);
  }
  for (int round = 0; round < 2; ++round) {  // the refill, then a hit
    sc.classify_batch(batch_in, batch_out, kBestOnly);
    for (const auto& r : batch_out) {
      EXPECT_FALSE(r.has_match());
      EXPECT_EQ(r.action, ruleset::Action::drop());
    }
  }
  // Every packet counts once, hit or miss, even with readers racing the
  // invalidations.
  const runtime::StatsSnapshot snap = sc.stats_snapshot();
  EXPECT_GE(snap.cache_invalidations, 2u);
  EXPECT_GT(snap.cache_hits, 0u);
  EXPECT_EQ(snap.cache_hits + snap.cache_misses, snap.packets);
}

}  // namespace
}  // namespace rfipc::flow
