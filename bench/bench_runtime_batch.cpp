// Extension: the software batch/sharded classification runtime.
//
// The paper's engines are hardware pipelines; this bench quantifies the
// SOFTWARE path the runtime/ subsystem adds for serving traffic before
// (or without) an FPGA: per-packet virtual classify() vs the batched
// classify_batch() fast path vs the ShardedClassifier multi-pipeline
// analogue (Section IV-A's packing, in software). Batching wins by
// reusing scratch vectors and replacing the simulated per-bit PPE
// tournament with a word-scan fold; sharding additionally cuts each
// pipeline's bit-vector width, and lanes spread each batch's packets
// across worker threads.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "engines/common/factory.h"
#include "harness.h"
#include "runtime/sharded_classifier.h"
#include "ruleset/generator.h"
#include "ruleset/trace.h"
#include "util/cores.h"
#include "util/simd.h"
#include "util/str.h"
#include "util/table.h"

using namespace rfipc;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main() {
  bench::print_banner(
      "Extension — batched + sharded software runtime",
      "multi-pipeline packing (Section IV-A) applied in software: batches "
      "amortize per-packet overhead, lanes split each batch's packets");
  bench::functional_gate(256);

  constexpr std::size_t kRules = 1024;
  constexpr std::size_t kPackets = 8192;
  constexpr std::size_t kBatch = 512;
  constexpr std::size_t kBatchWide = 2048;  // the vectorized-path acceptance row
  const std::string spec = "stridebv:4";
  std::printf("SIMD dispatch: %s\n\n", util::simd::active_name());

  const auto rules = ruleset::generate_firewall(kRules, 2013);
  ruleset::TraceConfig tcfg;
  tcfg.size = kPackets;
  tcfg.seed = 7;
  std::vector<net::HeaderBits> headers;
  headers.reserve(kPackets);
  for (const auto& t : ruleset::generate_trace(rules, tcfg)) headers.emplace_back(t);
  std::vector<engines::MatchResult> results(kPackets);

  util::TextTable table({"configuration", "Mpkt/s", "speedup", "p50 batch (us)",
                         "p99 batch (us)"});

  // Baseline: one virtual classify() per packet on the whole ruleset.
  const auto engine = engines::make_engine(spec, rules);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kPackets; ++i) results[i] = engine->classify(headers[i]);
  const double per_packet_s = seconds_since(t0);
  const double per_packet_rate = static_cast<double>(kPackets) / per_packet_s;
  table.add_row({engine->name() + " per-packet", util::fmt_double(per_packet_rate / 1e6, 3),
                 "1.00", "-", "-"});

  // Batched fast path, same single engine.
  const auto t1 = std::chrono::steady_clock::now();
  for (std::size_t off = 0; off < kPackets; off += kBatch) {
    const std::size_t len = std::min(kBatch, kPackets - off);
    engine->classify_batch({headers.data() + off, len}, {results.data() + off, len});
  }
  const double batched_rate = static_cast<double>(kPackets) / seconds_since(t1);
  table.add_row({engine->name() + " batch=" + std::to_string(kBatch),
                 util::fmt_double(batched_rate / 1e6, 3),
                 util::fmt_double(batched_rate / per_packet_rate, 2), "-", "-"});

  // Wide batches amortize the scratch arena further.
  const auto t1w = std::chrono::steady_clock::now();
  for (std::size_t off = 0; off < kPackets; off += kBatchWide) {
    const std::size_t len = std::min(kBatchWide, kPackets - off);
    engine->classify_batch({headers.data() + off, len}, {results.data() + off, len});
  }
  const double wide_rate = static_cast<double>(kPackets) / seconds_since(t1w);
  table.add_row({engine->name() + " batch=" + std::to_string(kBatchWide),
                 util::fmt_double(wide_rate / 1e6, 3),
                 util::fmt_double(wide_rate / per_packet_rate, 2), "-", "-"});

  // Sharded runtime across shard and lane counts. Each lane walks
  // every priority band over its own slice of the batch, so lanes
  // multiply packets, not bands. The 1-shard row is a one-band walk on
  // one lane (lanes never exceed shards): it classifies straight into
  // the caller's results with no hand-off and should track the raw
  // engine batch row above. The 4- and 8-shard rows run once on one
  // lane (core budget 1: the whole batch walked inline) and once on
  // min(4, cores) lanes (the caller plus run-to-completion shard
  // workers it offers lanes to and takes back when they have not
  // started), so each pair compares lanes over the same bands.
  const std::size_t hw = util::hardware_core_count();
  const std::size_t wide = std::min<std::size_t>(4, hw);
  double sharded1_rate = 0;
  double serial4_rate = 0;
  double wide4_rate = 0;
  double serial8_rate = 0;
  double wide8_rate = 0;
  struct Row {
    std::size_t shards;
    std::size_t budget;  // 0: every core
    double* rate;        // where a gate reads it, else null
  };
  for (const Row& row : {Row{1, 0, &sharded1_rate}, Row{2, 0, nullptr},
                         Row{4, 1, &serial4_rate}, Row{4, wide, &wide4_rate},
                         Row{8, 1, &serial8_rate}, Row{8, wide, &wide8_rate}}) {
    runtime::ShardedConfig cfg;
    cfg.shards = row.shards;
    cfg.core_budget = row.budget;
    cfg.engine_spec = spec;
    const runtime::ShardedClassifier sc(rules, cfg);
    const auto t2 = std::chrono::steady_clock::now();
    for (std::size_t off = 0; off < kPackets; off += kBatch) {
      const std::size_t len = std::min(kBatch, kPackets - off);
      sc.classify_batch({headers.data() + off, len}, {results.data() + off, len});
    }
    const double rate = static_cast<double>(kPackets) / seconds_since(t2);
    if (row.rate != nullptr) *row.rate = rate;
    // Worst shard's latency digest: one sample per engine call, i.e.
    // per lane slice that reaches the band.
    const auto snap = sc.stats_snapshot();
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    for (const auto& sh : snap.shards) {
      if (sh.p50_ns > p50) p50 = sh.p50_ns;
      if (sh.p99_ns > p99) p99 = sh.p99_ns;
    }
    table.add_row({sc.name() + " " + std::to_string(snap.workers.size() + 1) +
                       " lane(s) batch=" + std::to_string(kBatch),
                   util::fmt_double(rate / 1e6, 3),
                   util::fmt_double(rate / per_packet_rate, 2),
                   util::fmt_double(static_cast<double>(p50) / 1e3, 1),
                   util::fmt_double(static_cast<double>(p99) / 1e3, 1)});
  }
  // Flow-cache front end on a cache-hit-heavy (skewed) trace: a few
  // elephant flows carry the traffic, so after one cold pass nearly
  // every packet is answered without touching any shard. Both skewed
  // rows are best-only, the mode the cache serves (capture and the wire
  // server classify that way; multi-match callers skip the cache).
  constexpr engines::BatchOptions kBestOnly{.want_multi = false};
  double cached_rate = 0;
  double uncached_skewed_rate = 0;
  flow::FlowCache::Stats cache_stats;
  std::uint64_t cached_shard_batches = 0;
  {
    constexpr std::size_t kFlows = 64;
    std::vector<net::HeaderBits> skewed;
    skewed.reserve(kPackets);
    for (std::size_t i = 0; i < kPackets; ++i) skewed.push_back(headers[i % kFlows]);

    runtime::ShardedConfig cfg;
    cfg.shards = 4;
    cfg.engine_spec = spec;
    {
      const runtime::ShardedClassifier sc(rules, cfg);
      const auto t3 = std::chrono::steady_clock::now();
      for (std::size_t off = 0; off < kPackets; off += kBatch) {
        const std::size_t len = std::min(kBatch, kPackets - off);
        sc.classify_batch({skewed.data() + off, len}, {results.data() + off, len},
                          kBestOnly);
      }
      uncached_skewed_rate = static_cast<double>(kPackets) / seconds_since(t3);
      table.add_row({sc.name() + " skewed, no cache", util::fmt_double(uncached_skewed_rate / 1e6, 3),
                     util::fmt_double(uncached_skewed_rate / per_packet_rate, 2), "-", "-"});
    }
    cfg.flow_cache_capacity = 4096;
    const runtime::ShardedClassifier sc(rules, cfg);
    // Cold pass fills the cache; the timed pass is the steady state.
    sc.classify_batch({skewed.data(), kBatch}, {results.data(), kBatch}, kBestOnly);
    const auto t4 = std::chrono::steady_clock::now();
    for (std::size_t off = 0; off < kPackets; off += kBatch) {
      const std::size_t len = std::min(kBatch, kPackets - off);
      sc.classify_batch({skewed.data() + off, len}, {results.data() + off, len},
                        kBestOnly);
    }
    cached_rate = static_cast<double>(kPackets) / seconds_since(t4);
    table.add_row({sc.name() + " skewed + flow cache", util::fmt_double(cached_rate / 1e6, 3),
                   util::fmt_double(cached_rate / per_packet_rate, 2), "-", "-"});
    cache_stats = sc.flow_cache()->stats();
    for (const auto& sh : sc.stats_snapshot().shards) cached_shard_batches += sh.batches;
    std::printf("flow cache: %s\n", cache_stats.to_string().c_str());
  }
  bench::emit(table, "runtime_batch.csv");

  // Full stats readout from one runtime instance, as an app would see.
  {
    runtime::ShardedConfig cfg;
    cfg.shards = 4;
    cfg.engine_spec = spec;
    const runtime::ShardedClassifier sc(rules, cfg);
    sc.classify_batch(headers, results);
    std::printf("\nruntime stats: %s\n", sc.stats_snapshot().to_string().c_str());
  }

  bench::check("single-shard runtime rides the engine batch path (one band, one lane)",
               sharded1_rate >= 0.5 * batched_rate,
               util::fmt_double(sharded1_rate / batched_rate, 2) + "x of raw batch");
  bench::check("sharded runtime (4 shards, batch 512) beats per-packet classify 3x",
               wide4_rate >= 3.0 * per_packet_rate,
               util::fmt_double(wide4_rate / per_packet_rate, 2) + "x at " +
                   std::to_string(kRules) + " rules");
  // Lane-scaling gates, multi-core only. The same 4 bands walked over a
  // quarter of each batch per lane should approach 4x the one-lane row:
  // require 70% of linear, and require 4 lanes over 8 bands to at
  // least not fall below one lane (the original inversion, where adding
  // shards made the runtime slower). On smaller boxes the wide rows run
  // fewer lanes and the ratios are reported rather than gated.
  if (hw >= 4) {
    bench::check("4 lanes scale to >=0.7x linear over 1 lane (4 shards)",
                 wide4_rate >= 0.7 * 4.0 * serial4_rate,
                 util::fmt_double(wide4_rate / serial4_rate, 2) + "x of 1 lane on " +
                     std::to_string(hw) + " cores");
    bench::check("adding lanes never inverts throughput (8-shard floor)",
                 wide8_rate >= serial8_rate,
                 "4 lanes at " + util::fmt_double(wide8_rate / serial8_rate, 2) +
                     "x of 1 lane over 8 shards");
  } else {
    std::printf("[SKIP] lane-scaling gates need >=4 cores (this box has %zu); "
                "%zu lane(s) run at %sx (4 shards) and %sx (8 shards) of 1 lane\n",
                hw, wide, util::fmt_double(wide4_rate / serial4_rate, 2).c_str(),
                util::fmt_double(wide8_rate / serial8_rate, 2).c_str());
  }
  bench::check("flow cache short-circuits the fan-out on the skewed trace",
               cache_stats.hit_rate() > 0.9 &&
                   cached_shard_batches < 4 * (kPackets / kBatch + 1),
               cache_stats.to_string() + ", shard batches " +
                   std::to_string(cached_shard_batches));
  bench::check("flow cache beats the uncached fan-out on the skewed trace",
               cached_rate > uncached_skewed_rate,
               util::fmt_double(cached_rate / uncached_skewed_rate, 2) + "x");

  // Functional: the fast paths must agree with the golden engine.
  const auto golden = engines::make_engine("linear", rules);
  runtime::ShardedConfig cfg;
  cfg.shards = 4;
  cfg.engine_spec = spec;
  const runtime::ShardedClassifier sc(rules, cfg);
  sc.classify_batch(headers, results);
  bool ok = true;
  for (std::size_t i = 0; i < kPackets; ++i) {
    if (results[i].best != golden->classify(headers[i]).best) ok = false;
  }
  bench::check("sharded batch results identical to golden linear search", ok,
               std::to_string(kPackets) + " headers");
  return 0;
}
