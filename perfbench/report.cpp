// Reporting shared by the workloads: how a run's samples become the
// metrics it prints, and the metric names BENCHMARK.json lists.
#include "workloads.h"

namespace perfbench {

double add_throughput(std::vector<double> rates, double window_mpps, RunResult& r) {
  const std::size_t n = rates.size();
  const double typical = median(std::move(rates));
  r.add("throughput_mpps", typical, "Mpkt/s", n);
  r.add("throughput_window_mpps", window_mpps, "Mpkt/s", 1);
  return typical;
}

void add_update_metrics(const OpenLoopLog& log, RunResult& r, Observed& seen) {
  std::vector<double> lat = log.latency_us;
  std::vector<double> lag = log.lag_us;
  r.add("update_p50_us", quantile(lat, 0.50), "us", lat.size());
  r.add("update_p99_us", quantile(lat, 0.99), "us", lat.size());
  seen.update_lag_p99_us = quantile(lag, 0.99);
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {"throughput_mpps", "setup_s", "rss_mib"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "net.parse_ns",           "net.pack_ns",
      "net.parse_fail_frac",    "capture.pull_ns",
      "capture.loop_self_ns",   "capture.republish_us",
      "capture.ring_share_max", "capture.wrong_verdicts",
      "flow.hit_frac",          "flow.lookup_ns",
      "flow.insert_ns",         "flow.evictions_per_kpkt",
      "runtime.classify_ns",    "runtime.fanout_self_ns",
      "runtime.parallel_eff",   "runtime.shard_p99_us",
      "runtime.parks_per_batch", "runtime.ring_stalls_per_batch",
      "runtime.update_apply_us", "runtime.ops_per_swap",
      "engines.classify_ns",    "engines.slowest_shard_ns",
      "engines.bytes_per_rule", "engines.build_s",
      "ruleset.load_s",         "server.wire_tax_us",
      "server.codec_ns",        "server.bytes_per_pkt",
      "server.shed_frac",       "persist.append_us",
      "persist.fsyncs_per_update", "loadgen.update_lag_p99_us",
      "trace.overhead_frac",    "trace.unattributed_frac"};
  return names;
}

}  // namespace perfbench
