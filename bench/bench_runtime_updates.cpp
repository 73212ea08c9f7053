// Extension: cost of the concurrent update plane.
//
// The RCU snapshot-swap design promises that lookups never block on
// updates. This bench quantifies that promise and its price:
//   1. classify_batch p50/p99 with the update plane IDLE vs with a
//      writer thread streaming inserts+erases the whole time — the gap
//      is the entire reader-visible cost of concurrent updates;
//   2. snapshot-swap cost vs shard size: a synchronous update pays
//      clone + patch + publish + RCU grace period, and the clone cost
//      scales with the owning shard's band, not the whole ruleset.
// Emits runtime_updates.csv.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "harness.h"
#include "runtime/sharded_classifier.h"
#include "ruleset/generator.h"
#include "ruleset/trace.h"
#include "util/str.h"
#include "util/table.h"

using namespace rfipc;

namespace {

constexpr std::size_t kRules = 1024;
constexpr std::size_t kBatch = 256;
constexpr std::size_t kBatchesPerRun = 400;

double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

struct Quantiles {
  double p50 = 0;
  double p99 = 0;
};

Quantiles quantiles(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Quantiles q;
  if (samples.empty()) return q;
  q.p50 = samples[samples.size() / 2];
  q.p99 = samples[(samples.size() * 99) / 100];
  return q;
}

/// Runs kBatchesPerRun batches and returns per-batch latency quantiles.
/// When `updates` is true, a writer thread streams insert/erase pairs
/// through the update plane for the duration; returns the number of
/// update ops it completed via `ops_done`.
Quantiles run_batches(runtime::ShardedClassifier& sc,
                      const std::vector<net::HeaderBits>& headers, bool updates,
                      std::uint64_t* ops_done) {
  std::atomic<bool> stop{false};
  std::uint64_t ops = 0;
  std::thread writer;
  if (updates) {
    writer = std::thread([&] {
      // Insert + erase at a mid-band priority: net size is stable, so
      // every sample measures steady-state churn, not growth.
      while (!stop.load(std::memory_order_acquire)) {
        if (!sc.insert_rule(kRules / 2, ruleset::Rule::any())) break;
        if (!sc.erase_rule(kRules / 2)) break;
        ops += 2;
      }
    });
  }

  std::vector<engines::MatchResult> results(kBatch);
  std::vector<double> samples;
  samples.reserve(kBatchesPerRun);
  for (std::size_t b = 0; b < kBatchesPerRun; ++b) {
    const std::size_t off = (b * kBatch) % (headers.size() - kBatch);
    const auto t0 = std::chrono::steady_clock::now();
    sc.classify_batch({headers.data() + off, kBatch}, results);
    samples.push_back(us_since(t0));
  }

  if (updates) {
    stop.store(true, std::memory_order_release);
    writer.join();
  }
  if (ops_done != nullptr) *ops_done = ops;
  return quantiles(samples);
}

}  // namespace

int main() {
  bench::print_banner(
      "Extension — lock-free lookups under live updates (RCU snapshot swap)",
      "on-the-fly updates without blocking lookups, the software analogue of "
      "StrideBV's in-place hardware update path (paper Section V-B)");
  bench::functional_gate(256);

  const auto rules = ruleset::generate_firewall(kRules, 2013);
  ruleset::TraceConfig tcfg;
  tcfg.size = 8192;
  tcfg.seed = 7;
  std::vector<net::HeaderBits> headers;
  headers.reserve(tcfg.size);
  for (const auto& t : ruleset::generate_trace(rules, tcfg)) headers.emplace_back(t);

  // Part 1: reader latency with and without a concurrent writer.
  util::TextTable contention({"shards", "updates", "batch p50 (us)", "batch p99 (us)",
                              "update ops/s"});
  double idle_p99 = 0;
  double busy_p99 = 0;
  for (const std::size_t shards : {2u, 4u, 8u}) {
    runtime::ShardedConfig cfg;
    cfg.shards = shards;
    cfg.engine_spec = "stridebv:4";
    runtime::ShardedClassifier sc(rules, cfg);

    const auto warm = run_batches(sc, headers, false, nullptr);
    (void)warm;  // first run primes caches and the shard workers
    const auto idle = run_batches(sc, headers, false, nullptr);
    contention.add_row({std::to_string(shards), "idle",
                        util::fmt_double(idle.p50, 1), util::fmt_double(idle.p99, 1),
                        "-"});

    std::uint64_t ops = 0;
    const auto t0 = std::chrono::steady_clock::now();
    const auto busy = run_batches(sc, headers, true, &ops);
    const double secs = us_since(t0) / 1e6;
    contention.add_row({std::to_string(shards), "streaming",
                        util::fmt_double(busy.p50, 1), util::fmt_double(busy.p99, 1),
                        util::fmt_group(static_cast<std::uint64_t>(
                            static_cast<double>(ops) / secs))});
    if (shards == 4) {
      idle_p99 = idle.p99;
      busy_p99 = busy.p99;
    }
  }
  bench::emit(contention, "runtime_updates.csv");
  bench::check("lookups never block on updates",
               busy_p99 < idle_p99 * 20 + 1000,
               "4-shard batch p99 " + util::fmt_double(idle_p99, 1) + "us idle vs " +
                   util::fmt_double(busy_p99, 1) + "us under streaming updates");

  // Part 2: synchronous snapshot-swap cost vs shard size. More shards
  // means smaller bands, so the clone-and-patch each update pays
  // shrinks even though publish + grace period stay constant.
  util::TextTable swap({"shards", "band rules", "sync update mean (us)",
                        "sync updates/s"});
  for (const std::size_t shards : {1u, 2u, 4u, 8u, 16u}) {
    runtime::ShardedConfig cfg;
    cfg.shards = shards;
    cfg.engine_spec = "stridebv:4";
    runtime::ShardedClassifier sc(rules, cfg);
    constexpr std::size_t kOps = 400;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kOps / 2; ++i) {
      sc.insert_rule(kRules / 2, ruleset::Rule::any());
      sc.erase_rule(kRules / 2);
    }
    const double total_us = us_since(t0);
    swap.add_row({std::to_string(shards), std::to_string(kRules / shards),
                  util::fmt_double(total_us / kOps, 1),
                  util::fmt_group(static_cast<std::uint64_t>(
                      kOps / (total_us / 1e6)))});
  }
  bench::emit(swap, "runtime_updates_swap.csv");

  const auto snap_cost_note =
      "swap cost tracks band size (clone+patch), not total ruleset size";
  std::printf("\nnote: %s\n", snap_cost_note);
  return 0;
}
