// inproc-uniform and inproc-large-n: ShardedClassifier::classify_batch
// called in-process, one caller thread in a closed loop at batch 256,
// best-only, flow cache off.
#include <algorithm>
#include <memory>

#include "ruleset/parser.h"
#include "workloads.h"

namespace perfbench {

using namespace rfipc;

namespace {

constexpr std::size_t kBatch = 256;

struct Setup {
  std::unique_ptr<runtime::ShardedClassifier> classifier;
  double seconds = 0;
};

/// Rules-file load plus classifier build: what stands between a caller
/// and its first classify call.
Setup set_up(const std::string& path, const runtime::ShardedConfig& cfg) {
  const std::int64_t t0 = now_ns();
  ruleset::RuleSet rules = ruleset::load_ruleset(path);
  Setup s;
  s.classifier = std::make_unique<runtime::ShardedClassifier>(std::move(rules), cfg);
  s.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return s;
}

}  // namespace

RunResult run_inproc(const Options& o) {
  const bool large = o.workload == "inproc-large-n";
  const std::size_t n_rules = large ? (o.small ? 8192 : 131072) : (o.small ? 256 : 1024);
  const std::size_t n_headers = large ? (o.small ? 2048 : 16384) : (o.small ? 4096 : 65536);

  const RulesInput rules = make_rules(o.run_dir, n_rules, o.seed);
  HeaderStream keys = make_uniform_trace(rules.rules, n_headers, o.seed + 1);
  const UpdateScript script = make_update_script(rules.rules, keys, o.seed + 2);
  if (o.corrupt_reference) corrupt_reference(keys);

  runtime::ShardedConfig cfg;
  cfg.shards = large ? 1 : 4;
  cfg.engine_spec = large ? "prefilter(linear)" : "stridebv:4";

  const std::size_t batches = keys.headers.size() / kBatch;
  const auto max_calls = static_cast<std::size_t>(o.seconds * 50'000) + 4 * batches;
  std::vector<std::int64_t> done_ns;
  std::vector<double> latency_us;
  prefault(done_ns, max_calls);
  prefault(latency_us, max_calls);
  AnswerChecker checker;

  const std::uint64_t rss0 = proc_rss_bytes();
  Setup first = set_up(rules.path, cfg);
  std::vector<double> setup_s{first.seconds};
  runtime::ShardedClassifier& c = *first.classifier;

  std::vector<engines::MatchResult> res(kBatch);
  std::vector<std::uint64_t> best(kBatch);
  std::uint64_t calls = 0;
  auto call = [&](std::size_t b, bool timed) {
    const std::size_t off = b * kBatch;
    const std::int64_t t0 = now_ns();
    c.classify_batch({keys.headers.data() + off, kBatch}, res,
                     engines::BatchOptions{.want_multi = false});
    const std::int64_t t1 = now_ns();
    for (std::size_t i = 0; i < kBatch; ++i) {
      best[i] = res[i].has_match() ? res[i].best : kNone;
    }
    checker.check(best, {keys.reference.data() + off, kBatch}, t0, t1);
    ++calls;
    if (timed) {
      done_ns.push_back(t1);
      latency_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
  };

  // Warm-up: workers running and caches filled, at least one full pass.
  const std::int64_t warm_until = now_ns() + static_cast<std::int64_t>(
                                                 std::min(1.0, o.seconds / 5) * 1e9);
  for (std::size_t k = 0; k < batches || now_ns() < warm_until; ++k) call(k % batches, false);

  const std::int64_t start = now_ns();
  const std::int64_t stop = start + static_cast<std::int64_t>(o.seconds * 1e9);
  // Every distinct input is checked at least once inside the window.
  for (std::size_t k = 0; now_ns() < stop || k < batches; ++k) call(k % batches, true);
  const std::int64_t end = done_ns.back();

  const double rss_mib =
      (static_cast<double>(proc_rss_bytes()) - static_cast<double>(rss0)) / (1024.0 * 1024.0);

  RunResult r;
  Observed seen;
  // One rate per call: the caller's own checking between calls is not
  // the classifier's time, and a call a steal burst stalls is one sample.
  std::vector<double> rates;
  prefault(rates, latency_us.size());
  for (const double us : latency_us) rates.push_back(static_cast<double>(kBatch) / us);
  const double window_mpps =
      static_cast<double>(done_ns.size() * kBatch) / (static_cast<double>(end - start) * 1e-3);
  seen.throughput_mpps = add_throughput(std::move(rates), window_mpps, r);
  r.add("batch_p50_us", quantile(latency_us, 0.50), "us", latency_us.size());
  r.add("batch_p99_us", quantile(latency_us, 0.99), "us", latency_us.size());

  const std::uint64_t wrong = checker.wrong({});
  const runtime::StatsSnapshot st = c.stats_snapshot();
  r.check(wrong == 0, std::to_string(wrong) + " wrong answers");
  r.check(checker.checked() == calls * kBatch, "not every reply was checked");
  r.check(st.packets == calls * kBatch, "classifier packet counter != packets sent");
  r.check(st.cache_hits + st.cache_misses == 0,
          "cache hits + misses != packets that consulted the (disabled) cache");
  r.attempted = checker.checked();
  r.failed = wrong;

  for (const auto& s : st.shards) {
    seen.shard_p99_us = std::max(seen.shard_p99_us, static_cast<double>(s.p99_ns) * 1e-3);
  }
  for (const auto& w : st.workers) {
    seen.parks_per_batch += static_cast<double>(w.parks);
    seen.ring_stalls_per_batch += static_cast<double>(w.ring_stalls);
  }
  seen.parks_per_batch /= static_cast<double>(std::max<std::uint64_t>(st.batches, 1));
  seen.ring_stalls_per_batch /= static_cast<double>(std::max<std::uint64_t>(st.batches, 1));

  first.classifier.reset();
  if (o.trace) {
    const FrameInput frames = frames_from_headers(rules.rules, keys);
    ReplaySpec spec;
    spec.rules = &rules.rules;
    spec.rules_path = rules.path;
    spec.keys = &keys;
    spec.frames = &frames;
    spec.script = &script;
    spec.config = cfg;
    trace_layers(o, spec, seen, r);
  }

  // More set-ups for a steady setup_s, once the run's memory is measured.
  const int extra = o.small ? 2 : large ? 6 : 14;
  for (int i = 0; i < extra; ++i) setup_s.push_back(set_up(rules.path, cfg).seconds);
  r.add("setup_s", median(setup_s), "s", setup_s.size());
  r.add("rss_mib", rss_mib, "MiB", 1);
  return r;
}

}  // namespace perfbench
