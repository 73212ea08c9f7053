// rfipcd — the classification service daemon.
//
//   $ rfipcd [--host H] [--port P] [--rules SRC] [--shards S]
//            [--engine SPEC] [--flow-cache N] [--seed S]
//            [--port-file PATH] [--smoke] [--budget CORES]
//            [--journal DIR] [--fsync none|batch|always]
//            [--checkpoint-every N] [--force-empty]
//            [--capture <iface|pcap:PATH>] [--capture-rings N]
//            [--capture-loops N]
//
// --rules names a ruleset SOURCE (see ruleset/lang/source.h): a bare
// count keeps the historical generate-N-firewall-rules behaviour
// (honouring --seed), "gen:mode:size[:seed=N]" picks a generator
// configuration, and anything else is a file path parsed through the
// format registry — native, ClassBench, or the ipfilter/ipclassifier
// text grammar, auto-detected.
//
// Builds or loads that ruleset, stands the sharded runtime up behind a
// ClassifyServer on an epoll reactor, and serves the binary wire
// protocol (see src/server/wire.h) until SIGTERM/SIGINT, which trigger
// a graceful drain: stop accepting, flush every outbound queue, let
// in-flight rule updates publish and reply, then exit.
//
// --port defaults to 0 (ephemeral); --port-file writes the bound port
// to PATH once the daemon listens and its SIGTERM/SIGINT handlers are
// in place, so a signal sent as soon as the file appears still drains.
// That is how scripts/server_smoke.sh finds the server without racing
// on a fixed port.
//
// --budget caps the cores the daemon spends (0 = all): the reactor,
// the update waiter and one thread per capture ring come off the top,
// and the shard fan-out gets one lane per remaining core.
//
// --journal DIR makes rule state durable: on a fresh directory the
// generated ruleset is seeded as a checkpoint, and every acked update
// is write-ahead journaled (fsync per --fsync) BEFORE its OK reply —
// so an acked update survives kill -9. On restart the daemon ignores
// --rules/--seed and recovers the ruleset from DIR (checkpoint +
// journal tail replay; a torn tail is salvaged, and startup refuses on
// a corrupt checkpoint unless --force-empty archives it aside).
// --checkpoint-every N compacts the journal into a fresh checkpoint
// every N records (0 = only when the active segment reaches 8 MiB).
//
// --capture turns the daemon into an inline data plane alongside the
// RPC service: frames from a live interface (AF_PACKET TPACKET_V3
// rings; needs CAP_NET_RAW) or a deterministic pcap replay
// ("pcap:PATH", --capture-loops passes, 0 = loop until drain) are
// parsed and classified in batches of 256 frames through the same
// sharded engine the wire clients query. Frames no rule matches are
// dropped; drop/forward verdicts are counted per ring and surfaced in
// the STATS reply's "capture" block. Each verdict is the action
// classify_batch returns with the winning rule, from the same snapshot,
// so every frame classified after an update's OK reply is decided
// under that update.
//
// --smoke runs the whole loop in-process: the server serves on a
// background thread while a ClassifyClient pings, classifies a batch,
// inserts a catch-all rule at index 0, classifies again (the new rule
// must now win every packet), fetches stats, and drains. Exit status
// reports the outcome — this is the ctest entry.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rfipc.h"

using namespace rfipc;

namespace {

server::ClassifyServer* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_drain();  // async-signal-safe
}

int run_smoke(server::ClassifyServer& srv, const ruleset::RuleSet& rules,
              std::uint64_t seed) {
  std::thread serving([&srv] { srv.run(); });
  int rc = 1;
  {
    server::ClassifyClient client;
    ruleset::TraceConfig tcfg;
    tcfg.size = 512;
    tcfg.seed = seed + 1;
    std::vector<net::HeaderBits> packed;
    for (const auto& t : ruleset::generate_trace(rules, tcfg)) packed.emplace_back(t);

    std::vector<std::uint64_t> before;
    std::vector<std::uint64_t> after;
    std::string json;
    const ruleset::Rule catch_all = ruleset::Rule::any();

    if (!client.connect("127.0.0.1", srv.port())) {
      std::fprintf(stderr, "smoke: connect failed: %s\n", client.error().c_str());
    } else if (!client.ping()) {
      std::fprintf(stderr, "smoke: ping failed: %s\n", client.error().c_str());
    } else if (!client.classify(packed, before)) {
      std::fprintf(stderr, "smoke: classify failed: %s\n", client.error().c_str());
    } else if (!client.insert_rule(0, catch_all)) {
      std::fprintf(stderr, "smoke: insert failed: %s\n", client.error().c_str());
    } else if (!client.classify(packed, after)) {
      std::fprintf(stderr, "smoke: re-classify failed: %s\n", client.error().c_str());
    } else if (!client.stats_json(json) || json.empty()) {
      std::fprintf(stderr, "smoke: stats failed: %s\n", client.error().c_str());
    } else {
      // The catch-all inserted at global index 0 outranks everything:
      // the OK reply to INSERT_RULE guarantees its snapshot published,
      // so every later classify must report best = 0.
      std::size_t wrong = 0;
      for (const std::uint64_t b : after) wrong += (b != 0);
      if (wrong != 0) {
        std::fprintf(stderr, "smoke: %zu packets missed the catch-all\n", wrong);
      } else {
        std::printf("smoke: %zu packets classified, catch-all wins post-insert, "
                    "stats %zu bytes\n",
                    before.size(), json.size());
        rc = 0;
      }
    }
  }
  srv.request_drain();
  serving.join();
  const auto c = srv.counters();
  std::printf("smoke: served %llu requests over %llu connections "
              "(%llu B in, %llu B out, %llu shed, %llu decode errors)\n",
              static_cast<unsigned long long>(c.requests),
              static_cast<unsigned long long>(c.connections_total),
              static_cast<unsigned long long>(c.bytes_in),
              static_cast<unsigned long long>(c.bytes_out),
              static_cast<unsigned long long>(c.shed),
              static_cast<unsigned long long>(c.decode_errors));
  return rc;
}

util::CliFlags parse_flags(int argc, char** argv) {
  try {
    return util::CliFlags(argc, argv,
                          {"host", "port", "rules", "shards", "engine", "flow-cache",
                           "seed", "port-file", "smoke", "budget", "journal", "fsync",
                           "checkpoint-every", "force-empty", "capture",
                           "capture-rings", "capture-loops"});
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "rfipcd: %s\n", e.what());
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliFlags flags = parse_flags(argc, argv);
  const auto seed = flags.get_u64("seed", 7);

  const std::string rules_spec = flags.get("rules", "256");
  ruleset::RuleSet rules;
  std::string rules_desc;
  if (const auto count = util::parse_u64(rules_spec)) {
    // Historical spelling: a bare count generates firewall rules with
    // THIS daemon's --seed (resolve_ruleset_source would pin the
    // canonical bench seed instead).
    ruleset::GeneratorConfig gcfg;
    gcfg.mode = ruleset::GeneratorMode::kFirewall;
    gcfg.size = static_cast<std::size_t>(*count);
    gcfg.seed = seed;
    rules = ruleset::generate(gcfg);
    rules_desc = "generated firewall (seed " + std::to_string(seed) + ")";
  } else {
    ruleset::lang::ResolvedRules resolved;
    std::string err;
    if (!ruleset::lang::try_resolve_ruleset_source(rules_spec, resolved, err)) {
      std::fprintf(stderr, "rfipcd: --rules %s: %s\n", rules_spec.c_str(),
                   err.c_str());
      return 2;
    }
    rules = std::move(resolved.rules);
    rules_desc = std::move(resolved.description);
  }

  // Durable log first: recovered state replaces the generated ruleset,
  // and the log must outlive the classifier whose hook appends to it.
  std::unique_ptr<persist::DurableLog> durable;
  if (const auto dir = flags.get("journal", ""); !dir.empty()) {
    persist::DurableLogConfig pcfg;
    pcfg.dir = dir;
    const auto policy = persist::parse_fsync_policy(flags.get("fsync", "batch"));
    if (!policy) {
      std::fprintf(stderr, "rfipcd: --fsync must be none, batch, or always\n");
      return 2;
    }
    pcfg.fsync = *policy;
    pcfg.checkpoint_every_records = flags.get_u64("checkpoint-every", 8192);
    pcfg.force_empty = flags.get_bool("force-empty");
    std::string err;
    durable = persist::DurableLog::open(pcfg, err);
    if (durable == nullptr) {
      std::fprintf(stderr, "rfipcd: cannot open journal %s: %s\n", dir.c_str(),
                   err.c_str());
      return 2;
    }
    const auto& rec = durable->recovery();
    if (rec.checkpoint_loaded || rec.last_seq > 0) {
      rules = durable->rules_snapshot();
      rules_desc = "recovered from " + dir;
      std::printf("rfipcd: recovered %zu rules from %s (%s)\n", rules.size(),
                  dir.c_str(), rec.to_string().c_str());
    } else {
      if (!durable->seed(rules, err)) {
        std::fprintf(stderr, "rfipcd: cannot seed journal %s: %s\n", dir.c_str(),
                     err.c_str());
        return 2;
      }
      std::printf("rfipcd: seeded %s with %zu generated rules\n", dir.c_str(),
                  rules.size());
    }
  }

  const std::string capture_spec = flags.get("capture", "");
  auto capture_rings = static_cast<std::size_t>(flags.get_u64("capture-rings", 1));
  if (capture_rings == 0) capture_rings = 1;

  runtime::ShardedConfig rcfg;
  rcfg.shards = flags.get_u64("shards", 4);
  rcfg.engine_spec = flags.get("engine", "stridebv:4");
  rcfg.flow_cache_capacity = flags.get_u64("flow-cache", 0);
  // One core budget covers the whole process: the epoll reactor and
  // update waiter come off the top, shard workers get the rest (so a
  // 1- or 2-core box serves with a fully inline fan-out instead of
  // oversubscribing itself into the multi-shard slowdown).
  rcfg.core_budget = flags.get_u64("budget", 0);  // 0 = all cores
  // Capture consumer threads (one per ring) share the process budget
  // with the reactor and update waiter.
  rcfg.reserved_cores =
      server::kServiceThreads + (capture_spec.empty() ? 0 : capture_rings);
  if (durable != nullptr) {
    // Runs on the applier thread after each batch publishes but before
    // its futures resolve: an OK wire reply implies the journal append
    // (and fsync, per policy) already happened.
    persist::DurableLog* log = durable.get();
    rcfg.durability_hook = [log](std::span<const runtime::UpdateOp> ops) {
      std::vector<persist::RuleOp> journal_ops;
      journal_ops.reserve(ops.size());
      for (const auto& op : ops) {
        journal_ops.push_back(op.kind == runtime::UpdateOp::Kind::kInsert
                                  ? persist::RuleOp::insert(op.index, op.rule,
                                                            op.token)
                                  : persist::RuleOp::erase(op.index, op.token));
      }
      std::string err;
      if (!log->append_ops(journal_ops, err)) {
        std::fprintf(stderr,
                     "rfipcd: journal append failed, serving memory-only: %s\n",
                     err.c_str());
      }
    };
  }

  runtime::ShardedClassifier classifier(rules, rcfg);

  // The inline capture plane: AF_PACKET rings on an interface, or a
  // deterministic pcap replay ("pcap:PATH").
  std::unique_ptr<capture::CaptureSource> capture_src;
  std::unique_ptr<capture::CaptureLoop> capture_loop;
  if (!capture_spec.empty()) {
    try {
      if (capture_spec.rfind("pcap:", 0) == 0) {
        capture::PcapReplayConfig pcfg;
        pcfg.rings = capture_rings;
        pcfg.loops = flags.get_u64("capture-loops", 1);
        const std::string path = capture_spec.substr(5);
        capture_src = std::make_unique<capture::PcapReplaySource>(
            net::load_pcap(path), pcfg, path);
      } else {
        capture::AfPacketConfig acfg;
        acfg.iface = capture_spec;
        acfg.rings = capture_rings;
        capture_src = std::make_unique<capture::AfPacketSource>(acfg);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rfipcd: --capture %s: %s\n", capture_spec.c_str(),
                   e.what());
      return 2;
    }
    capture_loop = std::make_unique<capture::CaptureLoop>(*capture_src, classifier);
  }

  server::ServerConfig scfg;
  scfg.host = flags.get("host", "127.0.0.1");
  scfg.port = static_cast<std::uint16_t>(flags.get_u64("port", 0));
  scfg.durable = durable.get();
  if (capture_loop != nullptr) {
    scfg.capture_stats = [loop = capture_loop.get()] { return loop->counters(); };
  }
  server::ClassifyServer srv(classifier, scfg);

  std::printf("rfipcd: %zu rules [%s], %zu shards of %s, listening on %s:%u%s\n",
              rules.size(), rules_desc.c_str(), classifier.shard_count(),
              rcfg.engine_spec.c_str(), scfg.host.c_str(), srv.port(),
              durable != nullptr ? " (journaled)" : "");
  if (capture_src != nullptr) {
    std::printf("rfipcd: capturing via %s\n", capture_src->describe().c_str());
  }
  std::fflush(stdout);

  // Signals drain from here on, before anyone can learn the port: a
  // drain requested before run() starts is still honoured, because
  // request_drain() signals the event loop's notifier.
  g_server = &srv;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  if (const auto path = flags.get("port-file", ""); !path.empty()) {
    std::ofstream f(path);
    f << srv.port() << "\n";
  }

  if (capture_loop != nullptr) capture_loop->start();

  if (flags.get_bool("smoke")) {
    const int rc = run_smoke(srv, rules, seed);
    g_server = nullptr;
    if (capture_loop != nullptr) capture_loop->stop();
    return rc;
  }

  srv.run();
  g_server = nullptr;

  if (capture_loop != nullptr) {
    capture_loop->stop();
    const auto t = capture_loop->counters().total();
    std::printf("rfipcd: capture done: %llu frames (%llu forwarded, %llu "
                "dropped, %llu parse failures, %llu overruns)\n",
                static_cast<unsigned long long>(t.frames),
                static_cast<unsigned long long>(t.forwarded),
                static_cast<unsigned long long>(t.dropped),
                static_cast<unsigned long long>(t.parse_failures),
                static_cast<unsigned long long>(t.overruns));
  }

  const auto c = srv.counters();
  std::printf("rfipcd: drained; served %llu requests over %llu connections "
              "(%llu B in, %llu B out, %llu shed, %llu decode errors)\n",
              static_cast<unsigned long long>(c.requests),
              static_cast<unsigned long long>(c.connections_total),
              static_cast<unsigned long long>(c.bytes_in),
              static_cast<unsigned long long>(c.bytes_out),
              static_cast<unsigned long long>(c.shed),
              static_cast<unsigned long long>(c.decode_errors));
  return 0;
}
