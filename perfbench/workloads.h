// The four workloads and the traced layer replay they share.
//
// A timed run (--trace 0) drives one workload through its entry path
// with tracing off and reports the end-to-end metrics. A traced run
// (--trace 1) repeats the timed run for the counters the program itself
// publishes, then replays the workload's inputs in-process through the
// same public functions in the daemon's order with a span around every
// call, and reports the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "inputs.h"
#include "runtime/sharded_classifier.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs and short phases, for the self-test.
  bool small = false;
  /// Corrupt one reference answer; every check must then fail the run.
  bool corrupt_reference = false;
  std::string bin_dir;  // where rfipcd was built
  std::string run_dir;  // working directory of this run
};

/// Counters one timed run observed, in the form the per-layer metrics
/// need. From rfipcd's STATS for the daemon workloads and from the
/// classifier's own snapshot for the library ones.
struct Observed {
  double throughput_mpps = 0;
  /// Callers feeding the entry point in parallel (rings, connections).
  double concurrency = 1;
  double hit_frac = 0;
  double evictions_per_kpkt = 0;
  double shard_p99_us = 0;
  double parks_per_batch = 0;
  double ring_stalls_per_batch = 0;
  double ops_per_swap = 0;
  double update_lag_p99_us = 0;
  double wire_rtt_p50_us = -1;  // < 0: no wire path in the run
  double fsyncs_per_update = -1;  // < 0: no journal in the run
  double bytes_per_pkt = -1;
  double shed_frac = 0;
  double ring_share_max = -1;  // < 0: no capture plane in the run
  double wrong_verdicts = -1;
  std::size_t flow_cache = 0;  // the run's flow-cache slots (0 = off)
};

/// What the traced replay needs to know about a workload.
struct ReplaySpec {
  const rfipc::ruleset::RuleSet* rules = nullptr;
  std::string rules_path;
  /// The packed headers the entry point receives, with references.
  const HeaderStream* keys = nullptr;
  /// The frames the capture path receives; built from `keys` for the
  /// workloads that receive packed headers.
  const FrameInput* frames = nullptr;
  const UpdateScript* script = nullptr;
  rfipc::runtime::ShardedConfig config;
  std::size_t rings = 1;
  /// Layers the workload's own path crosses (for trace.unattributed_frac).
  bool path_capture = false;
  bool path_wire = false;
};

RunResult run_inproc(const Options& o);
RunResult run_capture_skewed(const Options& o);
RunResult run_wire_updates(const Options& o);

/// The traced replay: adds every per-layer metric to `r`.
void trace_layers(const Options& o, const ReplaySpec& spec, const Observed& seen,
                  RunResult& r);

/// Adds throughput_mpps, the median of a run's rate samples (per call,
/// per STATS poll interval or per slice), and beside it
/// throughput_window_mpps, all packets over the whole window. Host steal
/// time comes in bursts that stall a call or an interval on any core;
/// the median is the rate the workload sustains between them. Returns
/// throughput_mpps.
double add_throughput(std::vector<double> rates, double window_mpps, RunResult& r);
/// update_p50_us and update_p99_us from an open-loop sender's log.
void add_update_metrics(const OpenLoopLog& log, RunResult& r, Observed& seen);

/// The end-to-end metric names, in BENCHMARK.json order.
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& per_layer_names();

}  // namespace perfbench
