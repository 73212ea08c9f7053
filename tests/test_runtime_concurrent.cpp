// Concurrent stress for the RCU update plane (run under TSan via
// scripts/check.sh tsan).
//
// N reader threads hammer classify()/classify_batch() while a writer
// streams inserts and erases through the update plane. Every observed
// result must be consistent with some prefix of the update sequence —
// never a torn half-applied state — and each reader must observe
// snapshot versions in publication order.
//
// Setup that makes "consistent with a prefix" checkable from a single
// MatchResult: B base rules that do NOT match the probe header, then
// the writer appends T probe-matching rules and erases them again from
// the back. After any prefix of that sequence the classifier holds
// B + k rules (0 <= k <= T) and the probe's multi-match vector has
// exactly bits [B, B+k) set — so k is a version fingerprint, the best
// match must be B iff k > 0 (and the action forward iff k > 0: the
// appended rules forward, the base rules drop), and per reader the
// observed k sequence must be unimodal (rises to a peak, then falls;
// any subsequence of a unimodal sequence is unimodal, so one
// out-of-order snapshot fails). The writer starts only once every
// reader has made its first observation.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "net/header.h"
#include "runtime/sharded_classifier.h"

namespace rfipc::runtime {
namespace {

using engines::MatchResult;

constexpr std::size_t kBase = 9;       // non-matching base rules
constexpr std::size_t kVersions = 48;  // matching rules appended then erased
constexpr std::size_t kReaders = 4;

net::FiveTuple probe_tuple() {
  net::FiveTuple t;
  t.src_ip.value = 0xC0A80001;  // 192.168.0.1
  t.dst_ip.value = 0x08080808;
  t.src_port = 1234;
  t.dst_port = 80;
  t.protocol = 6;
  return t;
}

/// A /32 rule pinned to an address the probe never carries.
ruleset::Rule miss_rule(std::size_t i) {
  ruleset::Rule r;
  r.src_ip = {{0x0A000100u + static_cast<std::uint32_t>(i)}, 32};
  return r;
}

/// The probe-matching rule the writer appends; it forwards, while the
/// base rules drop.
ruleset::Rule probe_rule() {
  ruleset::Rule r = ruleset::Rule::any();
  r.action = ruleset::Action::forward(1);
  return r;
}

ruleset::RuleSet base_rules() {
  ruleset::RuleSet rules;
  for (std::size_t i = 0; i < kBase; ++i) rules.add(miss_rule(i));
  return rules;
}

struct ReaderReport {
  std::uint64_t observations = 0;
  std::size_t max_k = 0;
  bool valid = true;
  std::string error;
};

/// Checks one observed result against the prefix family; returns the
/// observed k, flagging report on violation.
std::size_t check_result(const MatchResult& r, ReaderReport& report) {
  const std::size_t total = r.multi.size();
  if (total < kBase || total > kBase + kVersions) {
    report.valid = false;
    report.error = "multi size " + std::to_string(total);
    return 0;
  }
  const std::size_t k = total - kBase;
  // Bits [0, kBase) clear, bits [kBase, kBase + k) set.
  std::size_t set_bits = 0;
  for (std::size_t b = r.multi.first_set(); b != util::BitVector::npos;
       b = r.multi.next_set(b + 1)) {
    if (b < kBase) {
      report.valid = false;
      report.error = "base rule " + std::to_string(b) + " matched";
      return k;
    }
    ++set_bits;
  }
  if (set_bits != k) {
    report.valid = false;
    report.error =
        "popcount " + std::to_string(set_bits) + " != k " + std::to_string(k);
    return k;
  }
  const std::size_t want_best = k > 0 ? kBase : MatchResult::kNoMatch;
  if (r.best != want_best) {
    report.valid = false;
    report.error =
        "best " + std::to_string(r.best) + " with k " + std::to_string(k);
  }
  const bool forwards = r.action.kind == ruleset::Action::Kind::kForward;
  if (forwards != (k > 0)) {
    report.valid = false;
    report.error = "action " + r.action.to_string() + " with k " + std::to_string(k);
  }
  return k;
}

TEST(RuntimeConcurrent, ReadersSeeOnlyPrefixConsistentSnapshotsInOrder) {
  ShardedConfig cfg;
  cfg.shards = 3;
  cfg.engine_spec = "linear";  // supports multi-match and clone-patch
  ShardedClassifier sc(base_rules(), cfg);
  ASSERT_TRUE(sc.supports_multi_match());

  const net::HeaderBits probe(probe_tuple());
  std::atomic<bool> done{false};
  std::atomic<std::size_t> started{0};
  std::vector<ReaderReport> reports(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      ReaderReport& rep = reports[t];
      std::size_t prev_k = 0;
      bool descending = false;
      std::vector<net::HeaderBits> batch_in(4, probe);
      std::vector<MatchResult> batch_out(batch_in.size());
      while (!done.load(std::memory_order_acquire) && rep.valid) {
        std::size_t k;
        if (rep.observations % 8 == 7) {
          // One batch call: every result in it comes from ONE pinned
          // snapshot, so all four must agree exactly.
          sc.classify_batch(batch_in, batch_out);
          k = check_result(batch_out[0], rep);
          for (std::size_t i = 1; i < batch_out.size() && rep.valid; ++i) {
            if (batch_out[i].best != batch_out[0].best ||
                batch_out[i].multi != batch_out[0].multi) {
              rep.valid = false;
              rep.error = "torn batch";
            }
          }
        } else {
          k = check_result(sc.classify(probe), rep);
        }
        // The first observation, valid or not, counts toward the start.
        if (rep.observations == 0) started.fetch_add(1, std::memory_order_release);
        if (!rep.valid) break;
        if (k < prev_k) descending = true;
        if (k > prev_k && descending) {
          rep.valid = false;
          rep.error = "k rose to " + std::to_string(k) + " after falling";
        }
        prev_k = k;
        if (k > rep.max_k) rep.max_k = k;
        ++rep.observations;
      }
    });
  }

  // Writer: once every reader has observed the base state, grow to
  // kBase + kVersions, then shrink back, synchronously (each call waits
  // for its publishing snapshot swap).
  while (started.load(std::memory_order_acquire) < kReaders) std::this_thread::yield();
  for (std::size_t v = 0; v < kVersions; ++v) {
    ASSERT_TRUE(sc.insert_rule(kBase + v, probe_rule()));
  }
  for (std::size_t v = kVersions; v > 0; --v) {
    ASSERT_TRUE(sc.erase_rule(kBase + v - 1));
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  for (std::size_t t = 0; t < kReaders; ++t) {
    EXPECT_TRUE(reports[t].valid) << "reader " << t << ": " << reports[t].error;
    EXPECT_GT(reports[t].observations, 0u) << t;
  }
  EXPECT_EQ(sc.rule_count(), kBase);
  const auto snap = sc.stats_snapshot();
  EXPECT_EQ(snap.updates, 2 * kVersions);
  EXPECT_GE(snap.snapshot_swaps, 1u);
  EXPECT_EQ(snap.faults, 0u);
}

TEST(RuntimeConcurrent, MultipleProducersSerializeThroughTheQueue) {
  ShardedConfig cfg;
  cfg.shards = 2;
  cfg.engine_spec = "stridebv:4";
  ShardedClassifier sc(base_rules(), cfg);

  constexpr std::size_t kPerProducer = 40;
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        // Index 0 is valid under every interleaving.
        ASSERT_TRUE(sc.insert_rule(0, ruleset::Rule::any()));
      }
    });
  }
  const net::HeaderBits probe(probe_tuple());
  // Concurrent reads while producers race; a result only has to be
  // prefix-consistent: best is kNoMatch (no any() rule yet) or 0.
  for (int i = 0; i < 400; ++i) {
    const auto r = sc.classify(probe);
    ASSERT_TRUE(r.best == MatchResult::kNoMatch || r.best == 0u);
  }
  for (auto& p : producers) p.join();
  sc.flush_updates();
  EXPECT_EQ(sc.rule_count(), kBase + 3 * kPerProducer);
  EXPECT_EQ(sc.classify(probe).best, 0u);
}

// Worker lanes these tests force: a core budget of 4 over 3 shards buys
// 3 lanes (dispatcher + 2 workers) even on a 1-core CI box.
constexpr std::size_t kLanes = 3;

std::uint64_t worker_tasks(const ShardedClassifier& sc) {
  std::uint64_t tasks = 0;
  for (const auto& w : sc.stats_snapshot().workers) tasks += w.tasks;
  return tasks;
}

// The same prefix-consistency invariant, but with the fan-out FORCED
// through the run-to-completion workers: batches of kLanes *
// kMinLaneRows packets give every lane a slice, so it exercises the
// SPSC hand-off. Under TSan this is the dispatcher/worker/RCU
// interleaving stress: workers read the snapshot the dispatcher pinned
// while the writer publishes new ones.
TEST(RuntimeConcurrent, WorkerFanOutSeesOnlyPrefixConsistentSnapshots) {
  ShardedConfig cfg;
  cfg.shards = 3;
  cfg.core_budget = 4;  // dispatcher lane + 3 ring-fed workers
  cfg.engine_spec = "linear";
  ShardedClassifier sc(base_rules(), cfg);

  const net::HeaderBits probe(probe_tuple());
  std::atomic<bool> done{false};
  std::atomic<bool> started{false};
  ReaderReport rep;
  std::thread reader([&] {
    std::vector<net::HeaderBits> batch_in(kLanes * kMinLaneRows, probe);
    std::vector<MatchResult> batch_out(batch_in.size());
    std::size_t prev_k = 0;
    bool descending = false;
    while (!done.load(std::memory_order_acquire) && rep.valid) {
      // Batches only: every call splits over all three lanes, and every
      // result must come from ONE snapshot.
      sc.classify_batch(batch_in, batch_out);
      const std::size_t k = check_result(batch_out[0], rep);
      for (std::size_t i = 1; i < batch_out.size() && rep.valid; ++i) {
        if (batch_out[i].best != batch_out[0].best ||
            batch_out[i].multi != batch_out[0].multi) {
          rep.valid = false;
          rep.error = "torn batch across workers";
        }
      }
      if (rep.observations == 0) started.store(true, std::memory_order_release);
      if (!rep.valid) break;
      if (k < prev_k) descending = true;
      if (k > prev_k && descending) {
        rep.valid = false;
        rep.error = "k rose after falling";
      }
      prev_k = k;
      ++rep.observations;
    }
  });

  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  for (std::size_t v = 0; v < kVersions; ++v) {
    ASSERT_TRUE(sc.insert_rule(kBase + v, probe_rule()));
  }
  for (std::size_t v = kVersions; v > 0; --v) {
    ASSERT_TRUE(sc.erase_rule(kBase + v - 1));
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_TRUE(rep.valid) << rep.error;
  EXPECT_GT(rep.observations, 0u);
  EXPECT_EQ(sc.stats_snapshot().faults, 0u);
  // 4 lanes clamp to the 3 shards: dispatcher lane + 2 workers.
  ASSERT_EQ(sc.stats_snapshot().workers.size(), kLanes - 1);
  EXPECT_GT(worker_tasks(sc), 0u);
}

// Worker fan-out under shard QUARANTINE: every shard's engine throws on
// classify, quarantine trips mid-stress on worker threads, and the
// runtime must keep serving degraded (no match from dead shards, no
// crash, no race) while updates stream through.
TEST(RuntimeConcurrent, WorkerFanOutSurvivesQuarantineUnderUpdates) {
  ShardedConfig cfg;
  cfg.shards = 3;
  cfg.core_budget = 4;
  cfg.engine_spec = "faulty(linear):p=1,mode=throw";
  cfg.failure.quarantine_after = 2;
  cfg.failure.rebuild = false;  // stay degraded: the worst case
  ShardedClassifier sc(base_rules(), cfg);

  const net::HeaderBits probe(probe_tuple());
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> batches{0};
  std::thread reader([&] {
    std::vector<net::HeaderBits> batch_in(kLanes * kMinLaneRows, probe);
    std::vector<MatchResult> batch_out(batch_in.size());
    while (!done.load(std::memory_order_acquire)) {
      sc.classify_batch(batch_in, batch_out);
      // Every shard faults, so nothing can ever match.
      for (const auto& r : batch_out) ASSERT_FALSE(r.has_match());
      batches.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(sc.insert_rule(0, miss_rule(100 + static_cast<std::size_t>(i))));
  }
  // Let the reader run against the fully quarantined state for a while.
  while (batches.load(std::memory_order_relaxed) < 64) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  reader.join();

  const auto snap = sc.stats_snapshot();
  EXPECT_GT(snap.faults, 0u);
  std::size_t quarantined = 0;
  for (const auto& h : snap.health) quarantined += h.quarantined ? 1 : 0;
  EXPECT_GT(quarantined, 0u);
  EXPECT_GT(worker_tasks(sc), 0u);  // the faults were taken on worker lanes too
}

/// Coalescing: async submits issued back-to-back may be folded into
/// fewer snapshot swaps than ops, and every future still resolves.
TEST(RuntimeConcurrent, AsyncSubmissionsCoalesceIntoFewerSwaps) {
  ShardedConfig cfg;
  cfg.shards = 2;
  ShardedClassifier sc(base_rules(), cfg);

  constexpr std::size_t kOps = 64;
  std::vector<std::future<bool>> futs;
  futs.reserve(kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    futs.push_back(sc.submit_insert(0, ruleset::Rule::any()));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get());
  const auto snap = sc.stats_snapshot();
  EXPECT_EQ(snap.updates, kOps);
  EXPECT_EQ(snap.coalesced_ops, kOps);
  EXPECT_LE(snap.snapshot_swaps, kOps);
  EXPECT_GE(snap.snapshot_swaps, 1u);
  EXPECT_EQ(sc.rule_count(), kBase + kOps);
}

}  // namespace
}  // namespace rfipc::runtime
