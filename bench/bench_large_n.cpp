// Tentpole: the large-N data plane (100k-1M rules).
//
// The paper's rulesets stop at a few thousand entries; real deployments
// run orders of magnitude larger, where a monolithic StrideBV walk
// (every packet ANDs every stage's full-N bit vector) collapses. This
// bench prices the two large-N levers against that raw engine at the
// SAME rule count:
//
//   * the tuple-space hash pre-filter (prefilter(<resolver>)), which
//     turns the O(N) scan into <= 50 hash probes plus exact candidate
//     verification, and
//   * priority-band partitioning (ShardedConfig::max_band_rules), which
//     caps every band's bit-vector width so non-matching bands
//     short-circuit after a handful of strides.
//
// Alongside Mpkt/s it reports memory bytes/rule (Engine::memory_bytes)
// and the cost of live inserts/erases routed through the runtime's
// UpdateQueue, so the large-N story covers the full control loop, not
// just lookups. N defaults to 131072; the CI smoke leg sets
// RFIPC_LARGE_N=16384 to keep the gate fast. Perf gates auto-skip under
// sanitizers (10-50x slowdowns would only measure the sanitizer).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
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

// Sanitized builds run this bench 10-50x slower and the perf gates
// would measure the sanitizer, not the data plane; the whole bench
// bails out early with a [SKIP] marker the smoke scripts look for.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RFIPC_LARGE_N_SANITIZED 1
#endif
#if !defined(RFIPC_LARGE_N_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RFIPC_LARGE_N_SANITIZED 1
#endif
#endif

using namespace rfipc;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Repeats `pass` (which classifies `packets_per_pass` headers) until
/// enough wall time has accumulated for a stable rate, and returns
/// packets/second. Large-N rates span four orders of magnitude, so a
/// fixed pass count would either starve the fast configs or stall the
/// bench on the slow ones.
template <typename Fn>
double timed_rate(std::size_t packets_per_pass, Fn&& pass) {
  constexpr double kMinSeconds = 0.25;
  constexpr std::size_t kMaxPasses = 1024;
  std::size_t done = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0;
  for (std::size_t i = 0; i < kMaxPasses; ++i) {
    pass();
    done += packets_per_pass;
    elapsed = seconds_since(t0);
    if (elapsed >= kMinSeconds) break;
  }
  return static_cast<double>(done) / elapsed;
}

/// Max of `reps` timed_rate measurements. On a busy CI box a single
/// 0.25s window can absorb a scheduler hiccup and skew a gated ratio
/// by 30-50%; the max across a few windows estimates the un-preempted
/// rate, which is what the throughput floors are about.
template <typename Fn>
double best_rate(std::size_t packets_per_pass, std::size_t reps, Fn&& pass) {
  double best = 0;
  for (std::size_t i = 0; i < reps; ++i) {
    const double r = timed_rate(packets_per_pass, pass);
    if (r > best) best = r;
  }
  return best;
}

std::string fmt_bytes_per_rule(std::uint64_t bytes, std::size_t rules) {
  return util::fmt_double(static_cast<double>(bytes) / static_cast<double>(rules), 1);
}

}  // namespace

int main() {
  bench::print_banner(
      "Tentpole — large-N data plane (tuple-space pre-filter + priority bands)",
      "beyond the paper's ruleset sizes: hash pre-filtering and band-width "
      "caps keep per-packet work flat while N grows to 100k+");
#if defined(RFIPC_LARGE_N_SANITIZED)
  constexpr bool kSanitized = true;
#else
  constexpr bool kSanitized = false;
#endif
  if (kSanitized) {
    std::printf("[SKIP] bench_large_n: sanitizer build detected; perf gates and "
                "large-N rows are meaningless under 10-50x instrumentation\n");
    return 0;
  }
  bench::functional_gate(256);

  std::size_t n = 131072;
  if (const char* env = std::getenv("RFIPC_LARGE_N")) {
    if (const auto v = util::parse_u64(env)) {
      n = static_cast<std::size_t>(*v);
      if (n < 4096) n = 4096;
    }
  }
  constexpr std::size_t kPackets = 8192;
  constexpr std::size_t kBatch = 512;
  // The raw un-partitioned engine runs at ~0.01 Mpkt/s at 131k rules; a
  // small sample keeps its timing loop bounded while staying large
  // enough to average over the trace mix.
  constexpr std::size_t kRawSample = 192;
  constexpr std::size_t kUpdateOps = 256;
  constexpr std::size_t kBaselineRules = 2048;
  std::printf("SIMD dispatch: %s, N=%zu (RFIPC_LARGE_N), trace=%zu\n\n",
              util::simd::active_name(), n, kPackets);

  const auto tg = std::chrono::steady_clock::now();
  const auto rules = ruleset::generate_firewall(n, 2013);
  const double gen_s = seconds_since(tg);
  std::printf("generated %zu deduplicated rules in %ss\n\n", rules.size(),
              util::fmt_double(gen_s, 2).c_str());

  ruleset::TraceConfig tcfg;
  tcfg.size = kPackets;
  tcfg.seed = 7;
  std::vector<net::HeaderBits> headers;
  headers.reserve(kPackets);
  for (const auto& t : ruleset::generate_trace(rules, tcfg)) headers.emplace_back(t);
  std::vector<engines::MatchResult> results(kPackets);

  util::TextTable table({"configuration", "Mpkt/s | Kupd/s", "vs raw", "bytes/rule",
                         "build (s) | us/op"});

  // N=2048 context row: the paper-scale working point every other row
  // is implicitly compared against ("what did growing N cost?").
  double baseline_rate = 0;
  {
    const auto tb = std::chrono::steady_clock::now();
    const auto base = engines::make_engine("stridebv:4",
                                           ruleset::generate_firewall(kBaselineRules, 2013));
    const double build_s = seconds_since(tb);
    baseline_rate = timed_rate(kPackets, [&] {
      for (std::size_t off = 0; off < kPackets; off += kBatch) {
        const std::size_t len = std::min(kBatch, kPackets - off);
        base->classify_batch({headers.data() + off, len}, {results.data() + off, len});
      }
    });
    table.add_row({"stridebv:4 N=" + std::to_string(kBaselineRules) + " baseline",
                   util::fmt_double(baseline_rate / 1e6, 3), "-",
                   fmt_bytes_per_rule(base->memory_bytes(), kBaselineRules),
                   util::fmt_double(build_s, 2)});
  }

  // The raw un-partitioned engine at full N — the reference every
  // speedup in this table divides by.
  double raw_rate = 0;
  {
    const auto tb = std::chrono::steady_clock::now();
    const auto raw = engines::make_engine("stridebv:4", rules);
    const double build_s = seconds_since(tb);
    raw_rate = best_rate(kRawSample, 3, [&] {
      raw->classify_batch({headers.data(), kRawSample}, {results.data(), kRawSample});
    });
    table.add_row({"stridebv:4 raw N=" + std::to_string(n),
                   util::fmt_double(raw_rate / 1e6, 3), "1.00",
                   fmt_bytes_per_rule(raw->memory_bytes(), n),
                   util::fmt_double(build_s, 2)});
  }

  // Tuple-space pre-filter rows: hash probes bound per-packet work by
  // the class count (<= 50 at the default quantum), not by N.
  double prefilter_rate = 0;
  std::uint64_t prefilter_bytes = 0;
  for (const std::string& spec : {std::string("prefilter(linear)"),
                                  std::string("prefilter(stridebv:4)")}) {
    const auto tb = std::chrono::steady_clock::now();
    const auto pf = engines::make_engine(spec, rules);
    const double build_s = seconds_since(tb);
    const double rate = best_rate(kPackets, 3, [&] {
      for (std::size_t off = 0; off < kPackets; off += kBatch) {
        const std::size_t len = std::min(kBatch, kPackets - off);
        pf->classify_batch({headers.data() + off, len}, {results.data() + off, len});
      }
    });
    if (spec == "prefilter(linear)") {
      prefilter_rate = rate;
      prefilter_bytes = pf->memory_bytes();
    }
    table.add_row({spec + " N=" + std::to_string(n), util::fmt_double(rate / 1e6, 3),
                   util::fmt_double(rate / raw_rate, 2),
                   fmt_bytes_per_rule(pf->memory_bytes(), n),
                   util::fmt_double(build_s, 2)});
  }

  // Priority-band partitioning: the band-width cap keeps every band's
  // bit vectors narrow, so bands with no match for a packet
  // short-circuit after a few strides instead of ANDing N-bit rows.
  double banded_rate = 0;
  std::uint64_t banded_bytes = 0;
  {
    runtime::ShardedConfig cfg;
    cfg.shards = 4;
    cfg.max_band_rules = 2048;
    cfg.engine_spec = "stridebv:4";
    const auto tb = std::chrono::steady_clock::now();
    const runtime::ShardedClassifier sc(rules, cfg);
    const double build_s = seconds_since(tb);
    banded_rate = timed_rate(kPackets, [&] {
      for (std::size_t off = 0; off < kPackets; off += kBatch) {
        const std::size_t len = std::min(kBatch, kPackets - off);
        sc.classify_batch({headers.data() + off, len}, {results.data() + off, len});
      }
    });
    banded_bytes = sc.memory_bytes();
    const std::size_t bands = sc.stats_snapshot().shards.size();
    table.add_row({"banded " + std::to_string(bands) + "x stridebv:4 cap=2048",
                   util::fmt_double(banded_rate / 1e6, 3),
                   util::fmt_double(banded_rate / raw_rate, 2),
                   fmt_bytes_per_rule(banded_bytes, n), util::fmt_double(build_s, 2)});
  }

  // The composed large-N runtime: pre-filter engines riding the sharded
  // fan-out, i.e. the spec an operator would actually deploy.
  double sharded_pf_rate = 0;
  {
    runtime::ShardedConfig cfg;
    cfg.shards = 4;
    cfg.engine_spec = "prefilter(linear)";
    const auto tb = std::chrono::steady_clock::now();
    const runtime::ShardedClassifier sc(rules, cfg);
    const double build_s = seconds_since(tb);
    sharded_pf_rate = timed_rate(kPackets, [&] {
      for (std::size_t off = 0; off < kPackets; off += kBatch) {
        const std::size_t len = std::min(kBatch, kPackets - off);
        sc.classify_batch({headers.data() + off, len}, {results.data() + off, len});
      }
    });
    table.add_row({"sharded 4x prefilter(linear)",
                   util::fmt_double(sharded_pf_rate / 1e6, 3),
                   util::fmt_double(sharded_pf_rate / raw_rate, 2),
                   fmt_bytes_per_rule(sc.memory_bytes(), n),
                   util::fmt_double(build_s, 2)});
  }

  // Live update cost through the UpdateQueue: async submits, one
  // flush, wall time amortized per op. The queue coalesces a burst
  // into one snapshot swap, so these are burst (not per-op-latency)
  // numbers — exactly how a control plane batches table pushes.
  std::size_t update_failures = 0;
  const auto extra = ruleset::generate_firewall(kUpdateOps, 4099);
  for (const auto& [label, spec, cap] :
       {std::tuple<std::string, std::string, std::size_t>{"banded stridebv:4 cap=2048",
                                                          "stridebv:4", 2048},
        std::tuple<std::string, std::string, std::size_t>{"sharded 4x prefilter(linear)",
                                                          "prefilter(linear)", 0}}) {
    runtime::ShardedConfig cfg;
    cfg.shards = 4;
    cfg.max_band_rules = cap;
    cfg.engine_spec = spec;
    runtime::ShardedClassifier sc(rules, cfg);

    std::vector<std::future<bool>> futs;
    futs.reserve(kUpdateOps);
    const auto ti = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kUpdateOps; ++i) {
      futs.push_back(sc.submit_insert((i * 7919) % (n + i), extra.rules()[i]));
    }
    sc.flush_updates();
    const double ins_s = seconds_since(ti);
    for (auto& f : futs) update_failures += f.get() ? 0 : 1;
    table.add_row({"update insert " + label,
                   util::fmt_double(static_cast<double>(kUpdateOps) / ins_s / 1e3, 1), "-",
                   "-", util::fmt_double(ins_s * 1e6 / kUpdateOps, 1)});

    futs.clear();
    const auto te = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kUpdateOps; ++i) {
      futs.push_back(sc.submit_erase((i * 104729) % (n + kUpdateOps - i)));
    }
    sc.flush_updates();
    const double ers_s = seconds_since(te);
    for (auto& f : futs) update_failures += f.get() ? 0 : 1;
    table.add_row({"update erase " + label,
                   util::fmt_double(static_cast<double>(kUpdateOps) / ers_s / 1e3, 1), "-",
                   "-", util::fmt_double(ers_s * 1e6 / kUpdateOps, 1)});
  }

  // Engine-direct update burst on the prefilter: buckets and probe
  // pools store epoch-stable rule ids, so an insert is a flat tail
  // remap of the order/position arrays plus a re-index of the ONE
  // touched class — every other class's probe index is untouched. The
  // queue rows above include snapshot-swap overhead; these rows price
  // the engine's own update path, and the gate pins the design point:
  // a whole burst must cost less than one from-scratch build().
  double pf_direct_build_s = 0;
  double pf_direct_s = 0;
  std::size_t direct_failures = 0;
  {
    const auto tb = std::chrono::steady_clock::now();
    const auto pf = engines::make_engine("prefilter(linear)", rules);
    pf_direct_build_s = seconds_since(tb);

    const auto ti = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kUpdateOps; ++i) {
      if (!pf->insert_rule((i * 7919) % (n + i), extra.rules()[i])) ++direct_failures;
    }
    const double ins_s = seconds_since(ti);
    table.add_row({"update direct insert prefilter(linear)",
                   util::fmt_double(static_cast<double>(kUpdateOps) / ins_s / 1e3, 1),
                   "-", "-", util::fmt_double(ins_s * 1e6 / kUpdateOps, 1)});

    const auto te = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kUpdateOps; ++i) {
      if (!pf->erase_rule((i * 104729) % (n + kUpdateOps - i))) ++direct_failures;
    }
    const double ers_s = seconds_since(te);
    table.add_row({"update direct erase prefilter(linear)",
                   util::fmt_double(static_cast<double>(kUpdateOps) / ers_s / 1e3, 1),
                   "-", "-", util::fmt_double(ers_s * 1e6 / kUpdateOps, 1)});
    pf_direct_s = ins_s + ers_s;
  }

  bench::emit(table, "large_n.csv");

  // Functional gates first: speed only counts if the answers match the
  // golden linear scan (sampled — the golden scan is O(N) per packet).
  {
    const auto golden = engines::make_engine("linear", rules);
    const auto pf = engines::make_engine("prefilter(linear)", rules);
    runtime::ShardedConfig cfg;
    cfg.shards = 4;
    cfg.max_band_rules = 2048;
    cfg.engine_spec = "stridebv:4";
    const runtime::ShardedClassifier sc(rules, cfg);
    std::vector<engines::MatchResult> banded_out(kRawSample);
    sc.classify_batch({headers.data(), kRawSample}, {banded_out.data(), kRawSample});
    bool pf_ok = true;
    bool band_ok = true;
    for (std::size_t i = 0; i < kRawSample; ++i) {
      const auto want = golden->classify(headers[i]).best;
      if (pf->classify(headers[i]).best != want) pf_ok = false;
      if (banded_out[i].best != want) band_ok = false;
    }
    bench::check("prefilter answers match golden linear search", pf_ok,
                 std::to_string(kRawSample) + " sampled headers at N=" +
                     std::to_string(n));
    bench::check("banded best-only batch matches golden linear search", band_ok,
                 std::to_string(kRawSample) + " sampled headers");
  }
  bench::check("memory accounting populated for every large-N engine",
               prefilter_bytes > 0 && banded_bytes > 0,
               "prefilter " + fmt_bytes_per_rule(prefilter_bytes, n) +
                   " B/rule, banded " + fmt_bytes_per_rule(banded_bytes, n) + " B/rule");
  bench::check("update bursts through the UpdateQueue all applied",
               update_failures == 0,
               std::to_string(4 * kUpdateOps) + " ops, " +
                   std::to_string(update_failures) + " failures");
  bench::check("engine-direct prefilter updates all applied",
               direct_failures == 0,
               std::to_string(2 * kUpdateOps) + " ops, " +
                   std::to_string(direct_failures) + " failures");
  // The incremental-update gate: an insert re-derives ONE class's
  // probe index (plus a flat uint32 tail remap), where the naive path
  // rebuilds every class — i.e. pays a from-scratch build() per op. So
  // the mean per-op cost must sit far below one build. Comparing
  // against a build measured in the same process on the same box keeps
  // the gate robust to CI noise; 8x leaves generous slack (observed
  // margins are an order of magnitude larger).
  const double pf_direct_op_s = pf_direct_s / (2.0 * kUpdateOps);
  bench::check("direct prefilter update 8x cheaper per op than a rebuild",
               pf_direct_op_s * 8.0 < pf_direct_build_s,
               util::fmt_double(pf_direct_op_s * 1e6, 1) + " us/op vs build " +
                   util::fmt_double(pf_direct_build_s * 1e3, 2) + " ms (" +
                   util::fmt_double(pf_direct_build_s / pf_direct_op_s, 0) + "x)");

  // The acceptance gate: pre-filtering must beat the raw un-partitioned
  // engine by 10x at the full 131072-rule point (ISSUE.md), with a
  // floor pinned at the CI smoke size (16384) so regressions surface on
  // every push, not just in full runs. The smoke floor carries noise
  // margin: on a single-core box the same binary measures 4.8-6.7x run
  // to run (scheduler preemption inside the short raw-engine timing
  // windows, even with best-of-3), while a real prefilter regression
  // drops the multiple to ~1x — 4x separates the two cleanly.
  const double needed = n >= 131072 ? 10.0 : 4.0;
  if (n >= 16384) {
    bench::check("prefilter(linear) >= " + util::fmt_double(needed, 0) +
                     "x raw StrideBV at N=" + std::to_string(n),
                 prefilter_rate >= needed * raw_rate,
                 util::fmt_double(prefilter_rate / raw_rate, 1) + "x");
  } else {
    std::printf("[SKIP] prefilter-vs-raw floor needs N >= 16384 (have %zu); "
                "measured %sx\n",
                n, util::fmt_double(prefilter_rate / raw_rate, 1).c_str());
  }
  // The banded runtime's win is parallel: each narrow band short-
  // circuits fast AND bands spread across worker lanes. On a 1-core
  // box the fan-out runs serial, so only the short-circuit shows; gate
  // the parallel multiple where cores exist, and gate "the cap doesn't
  // tank throughput" everywhere.
  const std::size_t hw = util::hardware_core_count();
  if (hw >= 4) {
    bench::check("band-width cap beats raw StrideBV 2x with worker lanes",
                 banded_rate >= 2.0 * raw_rate,
                 util::fmt_double(banded_rate / raw_rate, 2) + "x on " +
                     std::to_string(hw) + " cores");
  } else {
    bench::check("band-width cap at least holds raw StrideBV throughput (serial)",
                 banded_rate >= 0.8 * raw_rate,
                 util::fmt_double(banded_rate / raw_rate, 2) + "x on " +
                     std::to_string(hw) + " core(s)");
  }
  std::printf("\nN=%zu vs N=%zu baseline: raw %sx, prefilter %sx, banded %sx "
              "of paper-scale throughput\n",
              n, kBaselineRules, util::fmt_double(raw_rate / baseline_rate, 3).c_str(),
              util::fmt_double(prefilter_rate / baseline_rate, 3).c_str(),
              util::fmt_double(banded_rate / baseline_rate, 3).c_str());
  return 0;
}
