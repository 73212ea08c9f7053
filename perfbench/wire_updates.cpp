// wire-updates: two blocking connections classify the parsed tuples of
// capture-skewed's frames in a closed loop at batch 256 against a
// flow-cached, journaled rfipcd on loopback, while a third sends durable
// insert/erase pairs on a fixed schedule; every update invalidates the
// whole flow cache.
#include <algorithm>
#include <thread>

#include "daemon.h"
#include "server/classify_server.h"
#include "workloads.h"

namespace perfbench {

using namespace rfipc;

namespace {

constexpr double kUpdateRate = 300;  // ops/s
constexpr std::size_t kBatch = 256;
constexpr int kClients = 2;

}  // namespace

RunResult run_wire_updates(const Options& o) {
  const std::size_t n_rules = o.small ? 256 : 1024;
  const std::size_t n_frames = o.small ? 8192 : 65536;
  const std::size_t n_flows = o.small ? 2048 : 16384;
  const RulesInput rules = make_rules(o.run_dir, n_rules, o.seed);
  FrameInput frames = make_skewed_frames(o.run_dir, rules.rules, n_frames, n_flows, o.seed + 1);
  const UpdateScript script = make_update_script(rules.rules, frames.parsed, o.seed + 2);
  if (o.corrupt_reference) corrupt_reference(frames.parsed);

  const std::size_t cache = flow_cache_slots(frames.distinct_flows);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  // The two closed-loop connections keep two cores busy; rfipcd's budget
  // is what is left, so daemon and generator stay within the machine.
  const unsigned budget = cores > kClients ? cores - kClients : 1;
  const std::vector<std::string> args = {
      "--rules", rules.path, "--flow-cache", std::to_string(cache),
      "--budget", std::to_string(budget), "--fsync", "batch"};

  std::vector<double> setup_s = daemon_setups(o, args, o.small ? 2 : 3, {});
  const std::string dir = o.run_dir + "/main";
  make_dirs(dir);
  std::vector<std::string> a = args;
  a.insert(a.end(), {"--journal", dir + "/journal"});
  Daemon d(rfipcd_path(o), a, dir);
  setup_s.push_back(d.setup_s());

  const double warm_s = o.small ? 0.3 : 1.0;
  const std::int64_t go = now_ns() + 1'000'000;
  const std::int64_t start = go + static_cast<std::int64_t>(warm_s * 1e9);
  const std::int64_t stop = start + static_cast<std::int64_t>(o.seconds * 1e9);
  std::atomic<bool> halt{false};
  UpdateRun updates;
  std::vector<ClassifyRun> clients(kClients);
  {
    const std::size_t batches = frames.parsed.headers.size() / kBatch;
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        clients[i] =
            classify_wire(d.port(), frames.parsed, kBatch, i * batches / kClients, go, halt);
      });
    }
    std::thread sender([&] {
      updates = send_updates_wire(d.port(), script, kUpdateRate, start, stop);
    });
    sleep_until_ns(stop);
    halt = true;
    for (auto& t : threads) t.join();
    sender.join();
  }
  const AnswerChecker verified = verify_wire(d.port(), frames.parsed);
  const Json st = d.stats();
  const double rss_mib = static_cast<double>(d.hwm_bytes()) / (1024.0 * 1024.0);
  const bool drained = d.stop();

  std::vector<std::int64_t> done;
  std::vector<double> lat;
  AnswerChecker checker = verified;
  std::uint64_t failed_requests = 0;
  for (const ClassifyRun& c : clients) {
    done.insert(done.end(), c.done_ns.begin(), c.done_ns.end());
    const auto l = c.latency_in(start, stop);
    lat.insert(lat.end(), l.begin(), l.end());
    checker.merge(c.checker);
    failed_requests += c.failed_requests;
  }

  RunResult r;
  Observed seen;
  const int slices = static_cast<int>(o.seconds * 2);
  const auto in_window = std::count_if(done.begin(), done.end(), [&](std::int64_t t) {
    return t >= start && t < stop;
  });
  const double window_mpps = static_cast<double>(in_window) * kBatch /
                             (static_cast<double>(stop - start) * 1e-3);
  seen.throughput_mpps =
      add_throughput(slice_rates_mpps(done, kBatch, start, stop, slices), window_mpps, r);
  r.add("batch_p50_us", quantile(lat, 0.50), "us", lat.size());
  r.add("batch_p99_us", quantile(lat, 0.99), "us", lat.size());
  add_update_metrics(updates.log, r, seen);
  r.add("setup_s", median(setup_s), "s", setup_s.size());
  r.add("rss_mib", rss_mib, "MiB", 1);

  normalize_windows(updates.windows);
  const std::uint64_t wrong = checker.wrong(updates.windows);
  r.check(drained, "rfipcd did not drain cleanly");
  r.check(wrong == 0, std::to_string(wrong) + " wrong wire answers");
  check_daemon(st, updates.acked, r);
  r.attempted = checker.checked() + updates.log.attempted;
  r.failed = wrong + failed_requests + updates.log.failed;

  observe_stats(st, seen);
  seen.concurrency = kClients;
  seen.wire_rtt_p50_us = quantile(lat, 0.5);
  seen.flow_cache = cache;
  const Json& srv = st.at("server");
  seen.bytes_per_pkt = (srv.number("bytes_in") + srv.number("bytes_out")) /
                       static_cast<double>(std::max<std::uint64_t>(checker.checked(), 1));

  if (o.trace) {
    ReplaySpec spec;
    spec.rules = &rules.rules;
    spec.rules_path = rules.path;
    spec.keys = &frames.parsed;
    spec.frames = &frames;
    spec.script = &script;
    spec.config.shards = 4;
    spec.config.flow_cache_capacity = cache;
    spec.config.core_budget = budget;
    spec.config.reserved_cores = server::kServiceThreads;
    spec.path_wire = true;
    trace_layers(o, spec, seen, r);
  }
  return r;
}

}  // namespace perfbench
