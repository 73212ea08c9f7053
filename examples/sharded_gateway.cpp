// Sharded gateway — the batch/sharded software runtime serving a
// firewall workload, i.e. the paper's Section IV-A multi-pipeline
// packing driven from software.
//
//   $ sharded_gateway [--rules N] [--packets P] [--shards S]
//                     [--batch B] [--engine spec] [--seed S]
//
// Builds a ShardedClassifier (S priority bands, each its own engine of
// the chosen factory spec), replays a synthetic trace through it in
// batches, prints the runtime's counters and per-shard latency digest,
// then demonstrates live updates: a hot-insert of a high-priority drop
// rule takes effect on the very next batch, patching only the owning
// shard.
#include <cstdio>
#include <vector>

#include "rfipc.h"

using namespace rfipc;

int main(int argc, char** argv) {
  util::CliFlags flags(argc, argv,
                       {"rules", "packets", "shards", "batch", "engine", "seed"});
  const auto n_rules = flags.get_u64("rules", 512);
  const auto n_packets = flags.get_u64("packets", 100000);
  const auto n_shards = flags.get_u64("shards", 4);
  const auto batch = std::max<std::uint64_t>(1, flags.get_u64("batch", 512));
  const auto spec = flags.get("engine", "stridebv:4");
  const auto seed = flags.get_u64("seed", 2013);

  ruleset::GeneratorConfig gcfg;
  gcfg.mode = ruleset::GeneratorMode::kFirewall;
  gcfg.size = n_rules;
  gcfg.seed = seed;
  const auto rules = ruleset::generate(gcfg);

  runtime::ShardedConfig rcfg;
  rcfg.shards = n_shards;
  rcfg.engine_spec = spec;
  runtime::ShardedClassifier gateway(rules, rcfg);
  std::printf("runtime: %s\n", gateway.name().c_str());
  for (std::size_t s = 0; s < gateway.shard_count(); ++s) {
    std::printf("  shard %zu: %zu rules (%s)\n", s, gateway.shard_size(s),
                gateway.shard_engine(s)->name().c_str());
  }

  ruleset::TraceConfig tcfg;
  tcfg.size = n_packets;
  tcfg.seed = seed + 1;
  const auto trace = ruleset::generate_trace(rules, tcfg);
  std::vector<net::HeaderBits> packed;
  packed.reserve(trace.size());
  for (const auto& t : trace) packed.emplace_back(t);

  // Batched replay; the runtime fans each batch out across its shards.
  std::uint64_t dropped = 0;
  std::uint64_t forwarded = 0;
  std::vector<engines::MatchResult> results(packed.size());
  for (std::size_t off = 0; off < packed.size(); off += batch) {
    const std::size_t len = std::min<std::size_t>(batch, packed.size() - off);
    gateway.classify_batch({packed.data() + off, len}, {results.data() + off, len});
    for (std::size_t i = off; i < off + len; ++i) {
      const auto& r = results[i];
      if (r.has_match() && r.action.kind == ruleset::Action::Kind::kDrop) {
        ++dropped;
      } else {
        ++forwarded;
      }
    }
  }
  std::printf("\ntraffic: %s packets -> %s forwarded, %s dropped\n",
              util::fmt_group(packed.size()).c_str(),
              util::fmt_group(forwarded).c_str(), util::fmt_group(dropped).c_str());

  const auto snap = gateway.stats_snapshot();
  util::TextTable stats({"shard", "engine calls", "p50 latency (us)", "p99 latency (us)"});
  for (std::size_t s = 0; s < snap.shards.size(); ++s) {
    stats.add_row({std::to_string(s), std::to_string(snap.shards[s].batches),
                   util::fmt_double(static_cast<double>(snap.shards[s].p50_ns) / 1e3, 1),
                   util::fmt_double(static_cast<double>(snap.shards[s].p99_ns) / 1e3, 1)});
  }
  std::printf("\nruntime counters: packets=%llu batches=%llu matches=%llu\n",
              static_cast<unsigned long long>(snap.packets),
              static_cast<unsigned long long>(snap.batches),
              static_cast<unsigned long long>(snap.matches));
  std::printf("%s", stats.render(2).c_str());

  // Live update: block one observed flow with a top-priority drop rule.
  // Only the shard owning priority 0 is patched; traffic keeps flowing.
  ruleset::Rule block = rules[results[0].has_match() ? results[0].best : 0];
  block.action.kind = ruleset::Action::Kind::kDrop;
  if (!gateway.insert_rule(0, block)) {
    std::printf("\nlive update rejected\n");
    return 1;
  }
  const auto verdict = gateway.classify(packed[0]);
  const bool blocked =
      verdict.best == 0 && verdict.action.kind == ruleset::Action::Kind::kDrop;
  std::printf("\nlive update: drop rule hot-inserted at priority 0 "
              "(updates=%llu); first flow now -> %s\n",
              static_cast<unsigned long long>(gateway.stats_snapshot().updates),
              blocked ? "dropped" : "forwarded");
  return blocked ? 0 : 1;
}
