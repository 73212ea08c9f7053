// capture_gateway — the inline capture data plane as a standalone
// binary: frames in (AF_PACKET rings or deterministic pcap replay),
// forward/drop verdicts out.
//
//   $ capture_gateway --pcap trace.pcap [--rules SRC|N] [--engine SPEC]
//                     [--rings N] [--loops N] [--seed S] [--golden]
//   $ capture_gateway --iface eth0 [--duration-ms N] [...]
//
// --engine SPEC runs as a one-shard, one-core ShardedClassifier, the
// runtime that reports each winning rule's action with its index.
//
// pcap mode drains the replay source ring-by-ring on the calling
// thread (CaptureLoop::run), so the counters it prints are a pure
// function of (pcap bytes, flags) — run it twice, get identical
// output. --golden additionally recomputes every frame's verdict
// through the REFERENCE path (net::parse_frame + RuleSet::first_match,
// the linear-scan semantics every engine is verified against) and
// exits non-zero unless the capture plane's forward/drop/parse-failure
// counters match exactly. That is the CI gate: the zero-alloc batched
// engine path and the reference path must agree on every frame of a
// golden capture.
//
// --iface mode opens TPACKET_V3 rings on a live interface (requires
// CAP_NET_RAW), serves for --duration-ms, and prints the same counter
// lines. Without the capability it exits with status 3, which smoke
// scripts map to [SKIP] rather than failure.
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "rfipc.h"

using namespace rfipc;

namespace {

void print_counters(const runtime::CaptureCounters& c) {
  for (std::size_t r = 0; r < c.rings.size(); ++r) {
    const runtime::CaptureRing& ring = c.rings[r];
    std::printf("ring %zu: frames=%llu batches=%llu parse_failures=%llu "
                "forwarded=%llu dropped=%llu overruns=%llu\n",
                r, static_cast<unsigned long long>(ring.frames),
                static_cast<unsigned long long>(ring.batches),
                static_cast<unsigned long long>(ring.parse_failures),
                static_cast<unsigned long long>(ring.forwarded),
                static_cast<unsigned long long>(ring.dropped),
                static_cast<unsigned long long>(ring.overruns));
  }
  const runtime::CaptureRing t = c.total();
  std::printf("total: frames=%llu batches=%llu parse_failures=%llu "
              "forwarded=%llu dropped=%llu overruns=%llu\n",
              static_cast<unsigned long long>(t.frames),
              static_cast<unsigned long long>(t.batches),
              static_cast<unsigned long long>(t.parse_failures),
              static_cast<unsigned long long>(t.forwarded),
              static_cast<unsigned long long>(t.dropped),
              static_cast<unsigned long long>(t.overruns));
}

util::CliFlags parse_flags(int argc, char** argv) {
  try {
    return util::CliFlags(argc, argv,
                          {"pcap", "iface", "rules", "engine", "rings", "loops",
                           "seed", "golden", "duration-ms"});
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "capture_gateway: %s\n", e.what());
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliFlags flags = parse_flags(argc, argv);
  const std::string pcap_path = flags.get("pcap", "");
  const std::string iface = flags.get("iface", "");
  if (pcap_path.empty() == iface.empty()) {
    std::fprintf(stderr,
                 "capture_gateway: exactly one of --pcap or --iface required\n");
    return 2;
  }

  const auto seed = flags.get_u64("seed", 7);
  const std::string rules_spec = flags.get("rules", "128");
  ruleset::RuleSet rules;
  if (const auto count = util::parse_u64(rules_spec)) {
    rules = ruleset::generate_firewall(static_cast<std::size_t>(*count), seed);
  } else {
    ruleset::lang::ResolvedRules resolved;
    std::string err;
    if (!ruleset::lang::try_resolve_ruleset_source(rules_spec, resolved, err)) {
      std::fprintf(stderr, "capture_gateway: --rules %s: %s\n",
                   rules_spec.c_str(), err.c_str());
      return 2;
    }
    rules = std::move(resolved.rules);
  }
  runtime::ShardedConfig rcfg;
  rcfg.shards = 1;
  rcfg.core_budget = 1;
  rcfg.engine_spec = flags.get("engine", "stridebv:4");
  const runtime::ShardedClassifier classifier(rules, rcfg);

  auto rings = static_cast<std::size_t>(flags.get_u64("rings", 1));
  if (rings == 0) rings = 1;
  const auto loops = flags.get_u64("loops", 1);

  if (!pcap_path.empty()) {
    capture::PcapReplayConfig pcfg;
    pcfg.rings = rings;
    pcfg.loops = loops == 0 ? 1 : loops;  // a finite drain needs a pass count
    net::PcapFile file;
    try {
      file = net::load_pcap(pcap_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "capture_gateway: %s: %s\n", pcap_path.c_str(),
                   e.what());
      return 2;
    }
    // The source consumes the parsed file; keep a copy of the records
    // only when the golden recomputation needs them.
    const bool golden = flags.get_bool("golden");
    net::PcapFile reference;
    if (golden) reference = file;

    capture::PcapReplaySource src(std::move(file), pcfg, pcap_path);
    capture::CaptureLoop loop(src, classifier);
    std::printf("capture_gateway: %s -> %s, %zu rules\n", src.describe().c_str(),
                classifier.name().c_str(), rules.size());
    const std::uint64_t total = loop.run();
    const runtime::CaptureCounters counters = loop.counters();
    print_counters(counters);

    if (golden) {
      // Reference semantics, frame by frame: parse failures drop, a
      // kForward first-match forwards, everything else drops.
      std::uint64_t forwarded = 0;
      std::uint64_t dropped = 0;
      std::uint64_t parse_failures = 0;
      for (const auto& rec : reference.records) {
        const auto p = net::parse_frame(rec.frame, reference.link_type);
        if (!p.ok()) {
          ++parse_failures;
          ++dropped;
          continue;
        }
        const auto best = rules.first_match(p.tuple);
        const bool fwd = best.has_value() && rules[*best].action.kind ==
                                                 ruleset::Action::Kind::kForward;
        if (fwd) {
          ++forwarded;
        } else {
          ++dropped;
        }
      }
      const std::uint64_t passes = pcfg.loops;
      forwarded *= passes;
      dropped *= passes;
      parse_failures *= passes;
      const runtime::CaptureRing t = counters.total();
      const bool match = t.forwarded == forwarded && t.dropped == dropped &&
                         t.parse_failures == parse_failures &&
                         t.frames == reference.records.size() * passes;
      std::printf("golden: forwarded=%llu dropped=%llu parse_failures=%llu -> %s\n",
                  static_cast<unsigned long long>(forwarded),
                  static_cast<unsigned long long>(dropped),
                  static_cast<unsigned long long>(parse_failures),
                  match ? "MATCH" : "MISMATCH");
      if (!match) return 1;
    }
    return total > 0 || reference.records.empty() ? 0 : 1;
  }

  // Live AF_PACKET mode.
  capture::AfPacketConfig acfg;
  acfg.iface = iface;
  acfg.rings = rings;
  std::unique_ptr<capture::AfPacketSource> src;
  try {
    src = std::make_unique<capture::AfPacketSource>(acfg);
  } catch (const std::system_error& e) {
    const bool perm = e.code() == std::errc::operation_not_permitted ||
                      e.code() == std::errc::permission_denied;
    std::fprintf(stderr, "capture_gateway: %s%s\n", e.what(),
                 perm ? " (need CAP_NET_RAW)" : "");
    return perm ? 3 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "capture_gateway: %s\n", e.what());
    return 2;
  }
  capture::CaptureLoop loop(*src, classifier);
  std::printf("capture_gateway: %s -> %s, %zu rules\n", src->describe().c_str(),
              classifier.name().c_str(), rules.size());
  std::fflush(stdout);
  loop.start();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(flags.get_u64("duration-ms", 1000)));
  loop.stop();
  print_counters(loop.counters());
  return 0;
}
