// Firewall gateway simulation — the workload the paper's introduction
// motivates: a network firewall filtering traffic at wire speed.
//
//   $ firewall_gateway [--rules N] [--packets P] [--engine spec] [--seed S]
//
// Generates a firewall ruleset, streams a synthetic packet trace in
// batches through the sharded runtime (priority-band shards of the
// chosen engine, fanned out across the shard workers), enforces the
// matched rule's action (forward / drop), and prints traffic
// statistics plus the FPGA deployment report for the equivalent
// hardware design point.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "rfipc.h"

using namespace rfipc;

int main(int argc, char** argv) {
  util::CliFlags flags(argc, argv, {"rules", "packets", "engine", "seed"});
  const auto n_rules = flags.get_u64("rules", 512);
  const auto n_packets = flags.get_u64("packets", 200000);
  const auto spec = flags.get("engine", "stridebv:4");
  const auto seed = flags.get_u64("seed", 2013);

  ruleset::GeneratorConfig gcfg;
  gcfg.mode = ruleset::GeneratorMode::kFirewall;
  gcfg.size = n_rules;
  gcfg.seed = seed;
  const auto rules = ruleset::generate(gcfg);
  const auto features = ruleset::analyze(rules);
  std::printf("ruleset: %s\n\n", features.summary().c_str());

  runtime::ShardedConfig rcfg;
  rcfg.engine_spec = spec;
  const runtime::ShardedClassifier engine(rules, rcfg);
  std::printf("engine: %s (%zu rules)\n", engine.name().c_str(), engine.rule_count());

  ruleset::TraceConfig tcfg;
  tcfg.size = n_packets;
  tcfg.seed = seed + 1;
  const auto trace = ruleset::generate_trace(rules, tcfg);
  std::vector<net::HeaderBits> packed;
  packed.reserve(trace.size());
  for (const auto& t : trace) packed.emplace_back(t);

  // Classify batch by batch; per-action forwarding counters.
  constexpr std::size_t kBatch = 256;
  std::vector<engines::MatchResult> results(kBatch);
  std::uint64_t dropped = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t unmatched = 0;
  for (std::size_t off = 0; off < packed.size(); off += kBatch) {
    const std::size_t len = std::min(kBatch, packed.size() - off);
    engine.classify_batch({packed.data() + off, len}, {results.data(), len},
                          engines::BatchOptions{.want_multi = false});
    for (std::size_t i = 0; i < len; ++i) {
      const auto& r = results[i];
      if (!r.has_match()) {
        ++unmatched;  // no default rule would be a misconfiguration
      } else if (r.action.kind == ruleset::Action::Kind::kDrop) {
        ++dropped;
      } else {
        ++forwarded;
      }
    }
  }

  std::printf("traffic: %s packets -> %s forwarded, %s dropped, %s unmatched\n",
              util::fmt_group(packed.size()).c_str(),
              util::fmt_group(forwarded).c_str(), util::fmt_group(dropped).c_str(),
              util::fmt_group(unmatched).c_str());

  // What would this engine cost on the paper's FPGA?
  const auto device = fpga::virtex7_xc7vx1140t();
  fpga::DesignPoint dp;
  dp.entries = n_rules;
  if (spec.rfind("tcam", 0) == 0) {
    dp.kind = fpga::EngineKind::kTcamFpga;
  } else {
    dp.kind = fpga::EngineKind::kStrideBVDistRam;
    dp.stride = 4;
  }
  const auto report = fpga::analyze(dp, device);
  std::printf("\nFPGA deployment (%s):\n  %s\n", device.name.c_str(),
              report.one_line().c_str());
  return 0;
}
