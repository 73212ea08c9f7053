// Extension: the inline capture data plane vs the wire protocol.
//
// Two ways exist to feed this engine packets from outside the process:
// ship packed headers over the RPC wire (bench_server's path: framing,
// sockets, one syscall pair per batch per direction), or run the
// engine INLINE on the capture plane (pcap replay through the same
// ring-batched consumer AF_PACKET uses: parse raw frames, classify,
// verdict — no sockets at all). This bench prices both on the SAME
// trace and the SAME sharded engine and gates on the headline claim:
// inline capture must sustain at least 2x the wire-protocol packet
// rate, because it pays a parse per frame but no per-batch
// request/reply round trip.
//
// The functional check replays the capture once and requires the
// forward/drop/parse-failure counters to match the reference
// (RuleSet::first_match) verdict of every frame — the fast path is
// only priced after it is proven right.
//
// Under ASan/TSan the ratio would measure the sanitizer, not the data
// plane; the bench prints [SKIP] and exits 0 (the marker the smoke
// scripts look for).
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "capture/capture_loop.h"
#include "capture/pcap_source.h"
#include "harness.h"
#include "net/packet_parser.h"
#include "net/pcap.h"
#include "runtime/sharded_classifier.h"
#include "ruleset/generator.h"
#include "ruleset/trace.h"
#include "server/classify_server.h"
#include "server/client.h"
#include "util/prng.h"
#include "util/table.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RFIPC_CAPTURE_SANITIZED 1
#endif
#if !defined(RFIPC_CAPTURE_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RFIPC_CAPTURE_SANITIZED 1
#endif
#endif

using namespace rfipc;

namespace {

constexpr std::size_t kRules = 128;
constexpr std::size_t kFlows = 1024;
constexpr std::size_t kFrames = 8192;
constexpr std::size_t kBatch = capture::kBatchFrames;
constexpr double kSeconds = 1.5;

/// Wire baseline: one blocking client cycling batches of packed
/// headers, exactly bench_server's single-connection shape. Unused in
/// sanitizer builds, which skip the timed body of main().
[[maybe_unused]] double drive_wire(std::uint16_t port,
                                   std::span<const net::HeaderBits> headers) {
  server::ClassifyClient client;
  if (!client.connect("127.0.0.1", port)) return 0;
  std::vector<std::uint64_t> best;
  std::uint64_t packets = 0;
  std::size_t off = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 <
         std::chrono::duration<double>(kSeconds)) {
    if (off + kBatch > headers.size()) off = 0;
    if (!client.classify(headers.subspan(off, kBatch), best)) return 0;
    packets += kBatch;
    off += kBatch;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return static_cast<double>(packets) / elapsed / 1e6;
}

/// Capture rate: endless replay (loops=0) through `rings` consumer
/// threads for the timed window, frames/sec from the loop's counters.
[[maybe_unused]] double drive_capture(const net::PcapFile& file,
                                      const runtime::ShardedClassifier& classifier,
                                      std::size_t rings) {
  capture::PcapReplayConfig pcfg;
  pcfg.rings = rings;
  pcfg.loops = 0;  // until stop()
  capture::PcapReplaySource src(file, pcfg);  // copies the frames
  capture::CaptureLoop loop(src, classifier);
  const auto t0 = std::chrono::steady_clock::now();
  loop.start();
  std::this_thread::sleep_for(std::chrono::duration<double>(kSeconds));
  loop.stop();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return static_cast<double>(loop.counters().total().frames) / elapsed / 1e6;
}

}  // namespace

int main() {
  bench::print_banner(
      "Extension — inline capture plane vs the wire protocol",
      "replaying raw frames through the in-process capture consumer beats "
      "shipping packed headers over sockets: a parse per frame costs less "
      "than a request/reply round trip per batch");
#ifdef RFIPC_CAPTURE_SANITIZED
  std::printf("[SKIP] bench_capture: sanitizer build — throughput ratios would "
              "measure the sanitizer, not the data plane\n");
  return 0;
#else
  bench::functional_gate(kRules);

  const auto rules = ruleset::generate_firewall(kRules, 2013);

  // Flow-skewed trace: kFrames packets drawn deterministically from a
  // pool of kFlows distinct 5-tuples — real traffic repeats flows (a
  // few elephants carry most packets), which is what the data plane's
  // exact-match fast path exists for.
  ruleset::TraceConfig tcfg;
  tcfg.size = kFlows;
  tcfg.seed = 7;
  const auto flows = ruleset::generate_trace(rules, tcfg);
  std::vector<net::FiveTuple> trace;
  trace.reserve(kFrames);
  util::Xoshiro256 flow_rng(99);
  for (std::size_t i = 0; i < kFrames; ++i) {
    trace.push_back(flows[flow_rng.below(kFlows)]);
  }

  // The same trace in both encodings: packed headers for the wire,
  // raw Ethernet frames for the capture plane.
  std::vector<net::HeaderBits> headers;
  headers.reserve(kFrames);
  net::PcapFile file;
  file.records.reserve(kFrames);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    headers.emplace_back(trace[i]);
    net::PcapRecord rec;
    rec.ts_sec = 1'700'000'000 + static_cast<std::uint32_t>(i / 1000);
    rec.ts_usec = static_cast<std::uint32_t>((i % 1000) * 1000);
    rec.frame = net::build_packet(trace[i]);
    file.records.push_back(std::move(rec));
  }

  // One shard, inline serial fan-out: BOTH paths call the identical
  // zero-hand-off classify_batch, so the comparison isolates transport
  // (sockets vs in-process frames) instead of shard-worker scheduling.
  // Ring consumers then scale by adding threads that each run the
  // serial path — the capture analogue of adding wire connections.
  //
  // The flow cache — the data plane's shipped fast path — is ON and
  // shared by both transports (it lives inside the classifier), so the
  // steady state prices exactly what differs between them: a frame
  // parse per packet on the capture plane vs a request/reply round
  // trip per batch on the wire.
  runtime::ShardedConfig rcfg;
  rcfg.shards = 1;
  rcfg.core_budget = 1;
  rcfg.flow_cache_capacity = 2 * kFrames;
  runtime::ShardedClassifier classifier(rules, rcfg);

  // In-process ceiling: the raw batch path with no transport at all.
  double inproc_rate = 0;
  {
    std::vector<engines::MatchResult> results(kBatch);
    std::uint64_t done = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 <
           std::chrono::duration<double>(0.5)) {
      for (std::size_t off = 0; off + kBatch <= kFrames; off += kBatch) {
        classifier.classify_batch(
            std::span<const net::HeaderBits>(headers).subspan(off, kBatch),
            results, engines::BatchOptions{.want_multi = false});
        done += kBatch;
      }
    }
    inproc_rate = static_cast<double>(done) /
                  std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                t0)
                      .count() /
                  1e6;
  }

  // Functional check: one deterministic replay pass, counters vs the
  // reference verdict of every frame.
  bool verdicts_match = false;
  {
    capture::PcapReplaySource src(file);  // 1 ring, 1 pass
    capture::CaptureLoop loop(src, classifier);
    loop.run();
    std::uint64_t forwarded = 0;
    std::uint64_t dropped = 0;
    for (const auto& rec : file.records) {
      const auto p = net::parse_frame(rec.frame, file.link_type);
      if (!p.ok()) {
        ++dropped;
        continue;
      }
      const auto best = rules.first_match(p.tuple);
      const bool fwd = best.has_value() && rules[*best].action.kind ==
                                               ruleset::Action::Kind::kForward;
      fwd ? ++forwarded : ++dropped;
    }
    const runtime::CaptureRing t = loop.counters().total();
    verdicts_match = t.frames == kFrames && t.parse_failures == 0 &&
                     t.forwarded == forwarded && t.dropped == dropped;
  }

  server::ClassifyServer srv(classifier, server::ServerConfig{});
  std::thread serving([&srv] { srv.run(); });
  const double wire_rate = drive_wire(srv.port(), headers);
  srv.request_drain();
  serving.join();

  util::TextTable table({"configuration", "Mpkt/s", "vs wire"});
  char rate[32];
  char ratio[32];
  std::snprintf(rate, sizeof(rate), "%.2f", inproc_rate);
  std::snprintf(ratio, sizeof(ratio), "%.2fx",
                wire_rate > 0 ? inproc_rate / wire_rate : 0.0);
  table.add_row({"in-process batch " + std::to_string(kBatch), rate, ratio});
  std::snprintf(rate, sizeof(rate), "%.2f", wire_rate);
  table.add_row({"wire 1 conn x batch " + std::to_string(kBatch), rate, "1.00x"});

  double best_capture = 0;
  for (const std::size_t rings : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const double r = drive_capture(file, classifier, rings);
    if (r > best_capture) best_capture = r;
    std::snprintf(rate, sizeof(rate), "%.2f", r);
    std::snprintf(ratio, sizeof(ratio), "%.2fx",
                  wire_rate > 0 ? r / wire_rate : 0.0);
    table.add_row({"capture replay x" + std::to_string(rings) + " ring" +
                       (rings == 1 ? "" : "s") + ", batch " +
                       std::to_string(kBatch),
                   rate, ratio});
  }

  bench::emit(table, "capture.csv");

  char detail[96];
  std::snprintf(detail, sizeof(detail), "capture %.2f vs wire %.2f Mpkt/s",
                best_capture, wire_rate);
  bench::check("capture verdicts match the reference on every frame",
               verdicts_match, "forward/drop/parse counters identical");
  bench::check("the wire path sustains measurable throughput", wire_rate > 0.01,
               "wire baseline alive");
  bench::check("inline capture sustains >= 2x the wire-protocol rate",
               best_capture >= 2.0 * wire_rate, detail);
  return 0;
#endif
}
