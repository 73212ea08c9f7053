// capture-skewed: rfipcd replays a Zipf-skewed pcap through 2 capture
// rings into a flow-cached, journaled classifier, while one connection
// sends durable insert/erase pairs on a fixed schedule.
//
// The replay is finite (K passes) so its final counters have an exact
// reference. K comes from a start-up sample that measures the replay
// rate, so the replay outlasts warm-up and the timed window.
#include <algorithm>
#include <cmath>
#include <thread>

#include "capture/pcap_source.h"
#include "daemon.h"
#include "server/classify_server.h"
#include "workloads.h"

namespace perfbench {

using namespace rfipc;

namespace {

// Every update invalidates the whole flow cache, and refilling it costs
// about 20 hits per miss. At 120 ops/s the refills set the rate
// (2.4-3.6 Mpkt/s against 7.1 without updates, and a run-to-run spread
// of 0.28); at 20 ops/s most frames are cache hits again, as this
// workload intends, and the rate held within a few percent.
constexpr double kUpdateRate = 20;  // ops/s
constexpr std::size_t kRings = 2;

struct Poll {
  std::int64_t t;
  std::uint64_t frames;
  std::vector<double> ring_frames;
};

Poll poll(Daemon& d) {
  const std::int64_t a = now_ns();
  const Json st = d.stats();
  const std::int64_t b = now_ns();
  Poll p{a + (b - a) / 2, st.at("capture").u64("frames"), {}};
  for (const Json& r : st.at("capture").at("rings").items) {
    p.ring_frames.push_back(r.number("frames"));
  }
  return p;
}

}  // namespace

RunResult run_capture_skewed(const Options& o) {
  const std::size_t n_rules = o.small ? 256 : 1024;
  const std::size_t n_frames = o.small ? 8192 : 65536;
  const std::size_t n_flows = o.small ? 2048 : 16384;
  const RulesInput rules = make_rules(o.run_dir, n_rules, o.seed);
  FrameInput frames = make_skewed_frames(o.run_dir, rules.rules, n_frames, n_flows, o.seed + 1);
  const UpdateScript script = make_update_script(rules.rules, frames.parsed, o.seed + 2);
  if (o.corrupt_reference) corrupt_reference(frames.parsed);

  const std::size_t cache = flow_cache_slots(frames.distinct_flows);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  // The generator's update connection mostly sleeps; rfipcd gets every
  // core and reserves the reactor, update waiter and one thread per ring.
  const std::vector<std::string> args = {
      "--rules", rules.path, "--capture", "pcap:" + frames.pcap_path,
      "--capture-rings", std::to_string(kRings), "--flow-cache", std::to_string(cache),
      "--budget", std::to_string(cores), "--fsync", "batch"};

  // The flow hash splits the frames unevenly over the rings and each
  // ring replays its own share K times, so K is sized for every ring to
  // outlast warm-up and the window at the rate it ran at start-up.
  std::vector<double> ring_share;
  {
    const capture::PcapReplaySource partition(frames.pcap, {.rings = kRings});
    for (std::size_t r = 0; r < kRings; ++r) {
      ring_share.push_back(static_cast<double>(partition.ring_frames(r)));
    }
  }
  const double warm_s = o.small ? 0.3 : 1.5;
  double passes_needed = 2;
  std::vector<std::string> endless = args;
  endless.insert(endless.end(), {"--capture-loops", "0"});
  std::vector<double> setup_s =
      daemon_setups(o, endless, o.small ? 2 : 3, [&](Daemon& d) {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        const Poll a = poll(d);
        std::this_thread::sleep_for(std::chrono::milliseconds(o.small ? 300 : 700));
        const Poll b = poll(d);
        for (std::size_t r = 0; r < kRings; ++r) {
          const double fps = (b.ring_frames[r] - a.ring_frames[r]) /
                             (static_cast<double>(b.t - a.t) * 1e-9);
          passes_needed =
              std::max(passes_needed, ratio(fps * (warm_s + o.seconds + 2), ring_share[r]));
        }
      });
  const auto passes = static_cast<std::uint64_t>(std::ceil(passes_needed));
  const std::uint64_t total = passes * n_frames;

  const std::string dir = o.run_dir + "/main";
  make_dirs(dir);
  std::vector<std::string> a = args;
  a.insert(a.end(), {"--capture-loops", std::to_string(passes), "--journal", dir + "/journal"});
  Daemon d(rfipcd_path(o), a, dir);
  setup_s.push_back(d.setup_s());

  std::this_thread::sleep_for(std::chrono::duration<double>(warm_s));
  const std::int64_t start = now_ns() + 1'000'000;
  const std::int64_t stop = start + static_cast<std::int64_t>(o.seconds * 1e9);
  UpdateRun updates;
  std::vector<Poll> polls;
  {
    std::thread sender([&] {
      updates = send_updates_wire(d.port(), script, kUpdateRate, start, stop);
    });
    for (std::int64_t t = start; t <= stop; t += 100'000'000) {
      sleep_until_ns(t);
      polls.push_back(poll(d));
    }
    sender.join();
  }

  // Throughput: frame-counter deltas between consecutive polls taken
  // while every ring was still replaying.
  std::vector<double> rates;
  for (std::size_t i = 1; i < polls.size(); ++i) {
    bool replaying = true;
    for (std::size_t r = 0; r < kRings; ++r) {
      replaying = replaying &&
                  polls[i].ring_frames[r] < ring_share[r] * static_cast<double>(passes);
    }
    if (!replaying) break;
    rates.push_back(static_cast<double>(polls[i].frames - polls[i - 1].frames) /
                    (static_cast<double>(polls[i].t - polls[i - 1].t) * 1e-3));
  }
  if (rates.size() < 2) throw BenchError("capture replay ended before the timed window");
  const Poll& last = polls[rates.size()];
  const double window_mpps = static_cast<double>(last.frames - polls.front().frames) /
                             (static_cast<double>(last.t - polls.front().t) * 1e-3);

  // Let the finite replay finish so the final counters have a reference.
  for (const std::int64_t give_up = now_ns() + 150'000'000'000LL; poll(d).frames < total;) {
    if (now_ns() > give_up) throw BenchError("capture replay did not finish");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const AnswerChecker verified = verify_wire(d.port(), frames.parsed);
  const Json st = d.stats();
  const double rss_mib = static_cast<double>(d.hwm_bytes()) / (1024.0 * 1024.0);
  const bool drained = d.stop();

  RunResult r;
  Observed seen;
  seen.throughput_mpps = add_throughput(std::move(rates), window_mpps, r);
  add_update_metrics(updates.log, r, seen);
  r.add("setup_s", median(setup_s), "s", setup_s.size());
  r.add("rss_mib", rss_mib, "MiB", 1);

  // Correctness. The capture verdict race (the verdict table is swapped
  // after the engine snapshot it belongs to) is reported, not failed:
  // its count changes from run to run, so it is kept out of `failed`
  // and printed as wrong_verdicts (capture.wrong_verdicts when traced).
  const Json& cap = st.at("capture");
  const std::uint64_t forwarded = cap.u64("forwarded");
  const std::uint64_t reference = passes * frames.forwarded_per_pass;
  const std::uint64_t wrong_verdicts =
      forwarded > reference ? forwarded - reference : reference - forwarded;
  r.check(drained, "rfipcd did not drain cleanly");
  r.check(cap.u64("frames") == total, "capture frames != passes x pcap frames");
  // Parse failures are counted in `dropped` as well (capture_loop.h).
  r.check(cap.u64("frames") == forwarded + cap.u64("dropped"),
          "capture frames != forwarded + dropped");
  r.check(cap.u64("parse_failures") == passes * frames.rejects,
          "parse failures != the generated reject frames");
  const std::uint64_t wrong = verified.wrong({});
  r.check(wrong == 0, std::to_string(wrong) + " wrong wire answers");
  check_daemon(st, updates.acked, r);
  r.attempted = total + verified.checked() + updates.log.attempted;
  r.failed = wrong + updates.log.failed;
  r.add("wrong_verdicts", static_cast<double>(wrong_verdicts), "count", total);

  observe_stats(st, seen);
  seen.concurrency = kRings;
  seen.flow_cache = cache;
  double biggest = 0;
  for (const Json& ring : cap.at("rings").items) {
    biggest = std::max(biggest, ring.number("frames"));
  }
  seen.ring_share_max = biggest / static_cast<double>(total);
  seen.wrong_verdicts = static_cast<double>(wrong_verdicts);

  if (o.trace) {
    ReplaySpec spec;
    spec.rules = &rules.rules;
    spec.rules_path = rules.path;
    spec.keys = &frames.parsed;
    spec.frames = &frames;
    spec.script = &script;
    spec.config.shards = 4;
    spec.config.flow_cache_capacity = cache;
    spec.config.core_budget = cores;
    spec.config.reserved_cores = server::kServiceThreads + kRings;  // as rfipcd does
    spec.rings = kRings;
    spec.path_capture = true;
    trace_layers(o, spec, seen, r);
  }
  return r;
}

}  // namespace perfbench
