// The traced replay. Spans are recorded from here, around each call
// into a module's public function; calls that take one frame or key
// (parse_frame, HeaderBits, FlowCache::lookup/insert) get one span per
// batch with the call count, because a clock read costs about as much
// as one such call.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

#include "capture/capture_loop.h"
#include "capture/pcap_source.h"
#include "flow/flow_cache.h"
#include "net/packet_parser.h"
#include "persist/durable_log.h"
#include "ruleset/parser.h"
#include "server/classify_server.h"
#include "server/client.h"
#include "server/wire.h"
#include "workloads.h"

namespace perfbench {

using namespace rfipc;

namespace {

constexpr std::size_t kBatch = 256;
constexpr engines::BatchOptions kBest{.want_multi = false};

/// The payload of one encoded frame (past its length prefix).
std::span<const std::uint8_t> payload(const std::vector<std::uint8_t>& frame) {
  return std::span<const std::uint8_t>(frame).subspan(server::wire::kLenPrefixBytes);
}

std::vector<double> durations_us(std::vector<std::int64_t> ns) {
  std::vector<double> out;
  for (const auto v : ns) out.push_back(static_cast<double>(v) * 1e-3);
  return out;
}

/// Frame path in the daemon's order: next_batch -> parse_frame ->
/// HeaderBits -> classify_batch, per ring, `passes` times.
struct FramePath {
  double pull_ns = 0, parse_ns = 0, pack_ns = 0, classify_ns = 0;
  std::uint64_t frames = 0, parse_failures = 0;
};

FramePath replay_frames(Tracer& tr, std::uint64_t& batch_id, const FrameInput& in,
                        std::size_t rings, std::uint64_t passes,
                        const runtime::ShardedClassifier& c) {
  FramePath fp;
  capture::PcapReplaySource src(in.pcap, {.rings = rings, .loops = passes});
  std::vector<capture::FrameView> views(kBatch);
  std::vector<net::FiveTuple> tuples(kBatch);
  std::vector<net::HeaderBits> headers;
  std::vector<engines::MatchResult> results(kBatch);
  for (std::size_t ring = 0; ring < rings; ++ring) {
    while (!src.exhausted(ring)) {
      const std::uint64_t id = ++batch_id;
      SpanScope batch(&tr, "capture.batch", id);
      const auto pull = tr.begin("capture.PcapReplaySource::next_batch", id, batch.id());
      const std::size_t n = src.next_batch(ring, views);
      fp.pull_ns += static_cast<double>(tr.end(pull, n));
      if (n == 0) continue;
      fp.frames += n;
      std::size_t ok = 0;
      const auto parse = tr.begin("net::parse_frame", id, batch.id());
      for (std::size_t i = 0; i < n; ++i) {
        const net::ParsedPacket p = net::parse_frame(views[i].bytes(), src.link_type());
        if (p.ok()) tuples[ok++] = p.tuple;
      }
      fp.parse_ns += static_cast<double>(tr.end(parse, n));
      fp.parse_failures += n - ok;
      headers.clear();
      const auto pack = tr.begin("net::HeaderBits", id, batch.id());
      for (std::size_t i = 0; i < ok; ++i) headers.emplace_back(tuples[i]);
      fp.pack_ns += static_cast<double>(tr.end(pack, ok));
      const auto cls = tr.begin("runtime::ShardedClassifier::classify_batch", id, batch.id());
      c.classify_batch(headers, {results.data(), ok}, kBest);
      fp.classify_ns += static_cast<double>(tr.end(cls, ok));
      batch.set_count(n);
    }
  }
  return fp;
}

}  // namespace

void trace_layers(const Options& o, const ReplaySpec& spec, const Observed& seen,
                  RunResult& r) {
  Tracer tr;
  std::uint64_t batch_id = 0;
  const HeaderStream& keys = *spec.keys;
  const std::size_t batches = keys.headers.size() / kBatch;
  const double phase_s = o.small ? 0.2 : 1.0;

  // ruleset + engines: load and build, as a caller or rfipcd start-up does.
  std::vector<double> load_s, build_s;
  std::unique_ptr<runtime::ShardedClassifier> built;
  for (int i = 0; i < 3; ++i) {
    built.reset();
    const auto l = tr.begin("ruleset::load_ruleset", ++batch_id);
    ruleset::RuleSet rules = ruleset::load_ruleset(spec.rules_path);
    load_s.push_back(static_cast<double>(tr.end(l)) * 1e-9);
    const auto b = tr.begin("runtime::ShardedClassifier::ShardedClassifier", batch_id);
    built = std::make_unique<runtime::ShardedClassifier>(std::move(rules), spec.config);
    build_s.push_back(static_cast<double>(tr.end(b)) * 1e-9);
  }
  runtime::ShardedClassifier& c = *built;
  r.add("ruleset.load_s", median(load_s), "s", load_s.size());
  r.add("engines.build_s", median(build_s), "s", build_s.size());
  r.add("engines.bytes_per_rule",
        static_cast<double>(c.memory_bytes()) / static_cast<double>(spec.rules->size()),
        "B/rule", 1);

  std::vector<engines::MatchResult> res(kBatch);
  auto classify = [&](std::size_t b) {
    c.classify_batch({keys.headers.data() + (b % batches) * kBatch, kBatch}, res, kBest);
  };

  // runtime + engines. Untraced and traced chunks of the same closed loop
  // alternate, so drift cancels out of the tracing overhead. Then, for as
  // long again, every shard engine runs on each call's batch, before or
  // after the call in turn so neither side always finds the caches warm.
  for (std::size_t b = 0; b < batches; ++b) classify(b);  // warm
  const auto cache_before = c.stats_snapshot();
  constexpr int kChunks = 10;
  const auto chunk_ns = static_cast<std::int64_t>(phase_s * 1e9 / kChunks);
  double untraced_ns = 0, traced_ns = 0, classify_ns = 0;
  std::uint64_t calls = 0;
  for (int chunk = 0; chunk < kChunks || calls < batches; ++chunk) {
    std::uint64_t n = 0;
    std::int64_t t = now_ns();
    for (; now_ns() - t < chunk_ns; ++n) classify(calls + n);
    untraced_ns += static_cast<double>(now_ns() - t);
    t = now_ns();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto s = tr.begin("runtime::ShardedClassifier::classify_batch", ++batch_id);
      classify(calls + i);
      classify_ns += static_cast<double>(tr.end(s, kBatch));
    }
    traced_ns += static_cast<double>(now_ns() - t);
    calls += n;
  }
  const auto cache_after = c.stats_snapshot();
  double attributed_ns = 0, shard_ns = 0, slowest_ns = 0;
  std::uint64_t attributed = 0;
  std::vector<engines::MatchResult> shard_res(kBatch);
  for (const std::int64_t a0 = now_ns();
       attributed < batches || now_ns() - a0 < static_cast<std::int64_t>(phase_s * 1e9);
       ++attributed) {
    const std::uint64_t id = ++batch_id;
    const std::size_t off = (attributed % batches) * kBatch;
    auto engines_run = [&] {
      std::int64_t slowest = 0;
      for (std::size_t sh = 0; sh < c.shard_count(); ++sh) {
        const auto engine = c.shard_engine(sh);
        const auto e = tr.begin("engines::ClassifierEngine::classify_batch", id);
        engine->classify_batch({keys.headers.data() + off, kBatch}, shard_res, kBest);
        const std::int64_t d = tr.end(e, kBatch);
        shard_ns += static_cast<double>(d);
        slowest = std::max(slowest, d);
      }
      slowest_ns += static_cast<double>(slowest);
    };
    if (attributed % 2 == 1) engines_run();
    const auto s = tr.begin("runtime::ShardedClassifier::classify_batch", id);
    classify(attributed);
    attributed_ns += static_cast<double>(tr.end(s, kBatch));
    if (attributed % 2 == 0) engines_run();
  }
  const double packets = static_cast<double>(calls * kBatch);
  const double attributed_packets = static_cast<double>(attributed * kBatch);
  const double lookups = static_cast<double>(
      (cache_after.cache_hits - cache_before.cache_hits) +
      (cache_after.cache_misses - cache_before.cache_misses));
  const double miss_frac =
      lookups > 0 ? static_cast<double>(cache_after.cache_misses - cache_before.cache_misses) /
                        lookups
                  : 1.0;
  const double lanes = static_cast<double>(cache_after.workers.size() + 1);

  // flow: the workload's key stream through a cache of the workload's
  // size (or the size it would need), probes then inserts per batch.
  const std::size_t slots =
      seen.flow_cache > 0 ? seen.flow_cache : flow_cache_slots(keys.headers.size());
  flow::FlowCache fc(slots);
  double lookup_ns = 0, insert_ns = 0;
  std::uint64_t n_lookup = 0, n_insert = 0;
  {
    engines::MatchResult out;
    std::vector<std::size_t> miss;
    const std::int64_t f0 = now_ns();
    for (std::size_t k = 0;
         k < 2 * batches || now_ns() - f0 < static_cast<std::int64_t>(phase_s * 1e9); ++k) {
      const std::uint64_t id = ++batch_id;
      const std::size_t off = (k % batches) * kBatch;
      miss.clear();
      const auto l = tr.begin("flow::FlowCache::lookup", id);
      for (std::size_t i = 0; i < kBatch; ++i) {
        if (!fc.lookup(keys.headers[off + i], out)) miss.push_back(off + i);
      }
      lookup_ns += static_cast<double>(tr.end(l, kBatch));
      n_lookup += kBatch;
      const std::uint64_t epoch = fc.epoch();
      const auto ins = tr.begin("flow::FlowCache::insert", id);
      for (const std::size_t i : miss) {
        out.best = keys.reference[i] == kNone ? engines::MatchResult::kNoMatch
                                              : static_cast<std::size_t>(keys.reference[i]);
        fc.insert(keys.headers[i], epoch, out);
      }
      insert_ns += static_cast<double>(tr.end(ins, miss.size()));
      n_insert += miss.size();
    }
  }
  const double probe_ns_per_pkt =
      ratio(lookup_ns, static_cast<double>(n_lookup)) +
      miss_frac * ratio(insert_ns, static_cast<double>(n_insert));
  const double engine_ns = shard_ns * miss_frac;
  const double slowest_on_path = slowest_ns * miss_frac;

  r.add("runtime.classify_ns", classify_ns / packets, "ns", calls);
  r.add("runtime.fanout_self_ns",
        std::max(0.0, (attributed_ns - slowest_on_path) / attributed_packets -
                          (lookups > 0 ? probe_ns_per_pkt : 0)),
        "ns", attributed);
  r.add("runtime.parallel_eff", engine_ns / (lanes * attributed_ns), "ratio", attributed);
  r.add("engines.classify_ns", engine_ns / attributed_packets, "ns",
        attributed * c.shard_count());
  r.add("engines.slowest_shard_ns", slowest_on_path / attributed_packets, "ns", attributed);
  r.add("flow.lookup_ns", ratio(lookup_ns, static_cast<double>(n_lookup)), "ns", n_lookup);
  r.add("flow.insert_ns", ratio(insert_ns, static_cast<double>(n_insert)), "ns", n_insert);
  r.add("flow.hit_frac", seen.hit_frac, "ratio", 1);
  r.add("flow.evictions_per_kpkt", seen.evictions_per_kpkt, "1/kpkt", 1);
  r.add("runtime.shard_p99_us", seen.shard_p99_us, "us", 1);
  r.add("runtime.parks_per_batch", seen.parks_per_batch, "1/batch", 1);
  r.add("runtime.ring_stalls_per_batch", seen.ring_stalls_per_batch, "1/batch", 1);
  r.add("runtime.ops_per_swap", seen.ops_per_swap, "ops/swap", 1);
  r.add("loadgen.update_lag_p99_us", seen.update_lag_p99_us, "us", 1);
  r.add("trace.overhead_frac", 1.0 - untraced_ns / traced_ns, "ratio", calls);

  // net + capture: the frame path in the daemon's order, between two
  // CaptureLoop::run passes over the same frames; the loop's self time is
  // what the separately timed pull, parse, pack and classify do not cover.
  const FrameInput& frames = *spec.frames;
  const std::uint64_t n_frames = frames.pcap.records.size();
  const std::uint64_t passes =
      std::max<std::uint64_t>(1, (o.small ? 16384 : 262144) / n_frames);
  {
    capture::PcapReplaySource warm(frames.pcap, {.rings = spec.rings, .loops = 1});
    capture::CaptureLoop loop(warm, c, *spec.rules);
    loop.run();
  }
  double run_ns = 0;
  runtime::CaptureCounters counters;
  auto loop_run = [&] {
    capture::PcapReplaySource src(frames.pcap, {.rings = spec.rings, .loops = passes});
    capture::CaptureLoop loop(src, c, *spec.rules);
    const auto span = tr.begin("capture::CaptureLoop::run", ++batch_id);
    const std::uint64_t looped = loop.run();
    run_ns += static_cast<double>(tr.end(span, looped)) / 2;
    counters = loop.counters();
  };
  loop_run();
  const FramePath fp = replay_frames(tr, batch_id, frames, spec.rings, passes, c);
  loop_run();
  const runtime::CaptureRing total = counters.total();
  if (total.frames != fp.frames) {
    throw BenchError("capture replays disagree on the frame count");
  }
  const double frames_d = static_cast<double>(fp.frames);
  r.add("net.parse_ns", fp.parse_ns / frames_d, "ns", fp.frames);
  r.add("net.pack_ns", ratio(fp.pack_ns, frames_d - static_cast<double>(fp.parse_failures)),
        "ns", fp.frames - fp.parse_failures);
  r.add("net.parse_fail_frac", static_cast<double>(fp.parse_failures) / frames_d, "ratio",
        fp.frames);
  r.check(fp.parse_failures == passes * frames.rejects,
          "replayed parse failures != the generated reject frames");
  r.add("capture.pull_ns", fp.pull_ns / frames_d, "ns", fp.frames);
  r.add("capture.loop_self_ns",
        std::max(0.0, (run_ns - fp.pull_ns - fp.parse_ns - fp.pack_ns - fp.classify_ns) /
                          frames_d),
        "ns", fp.frames);
  double biggest = 0;
  for (const auto& ring : counters.rings) {
    biggest = std::max(biggest, static_cast<double>(ring.frames));
  }
  const double replay_wrong = std::abs(static_cast<double>(total.forwarded) -
                                       static_cast<double>(passes * frames.forwarded_per_pass));
  r.check(replay_wrong == 0, "in-process capture replay forwarded a wrong count");
  r.add("capture.ring_share_max",
        seen.ring_share_max >= 0 ? seen.ring_share_max : biggest / frames_d, "ratio", 1);
  r.add("capture.wrong_verdicts",
        seen.wrong_verdicts >= 0 ? seen.wrong_verdicts : replay_wrong, "count", 1);

  // server: the wire codec around classify_batch, per request.
  double codec_ns = 0, wire_bytes = 0;
  std::vector<std::int64_t> inproc_call_ns;
  {
    server::wire::Request req, req2;
    server::wire::Response rsp, rsp2;
    req.op = server::wire::Op::kClassifyBatch;
    rsp.op = server::wire::Op::kClassifyBatch;
    std::vector<std::uint8_t> buf;
    std::string err;
    const std::size_t requests = std::min<std::size_t>(calls, o.small ? 64 : 1024);
    for (std::size_t k = 0; k < requests; ++k) {
      const std::uint64_t id = ++batch_id;
      const std::size_t off = (k % batches) * kBatch;
      SpanScope request(&tr, "server.request", id);
      req.id = static_cast<std::uint32_t>(k + 1);
      req.headers.assign(keys.headers.begin() + off, keys.headers.begin() + off + kBatch);
      buf.clear();
      auto s = tr.begin("server::wire::encode_request", id, request.id());
      server::wire::encode_request(req, buf);
      codec_ns += static_cast<double>(tr.end(s, kBatch));
      wire_bytes += static_cast<double>(buf.size());
      s = tr.begin("server::wire::decode_request", id, request.id());
      const bool req_ok = server::wire::decode_request(payload(buf), req2, err);
      codec_ns += static_cast<double>(tr.end(s, kBatch));
      if (!req_ok) throw BenchError("decode_request: " + err);
      s = tr.begin("runtime::ShardedClassifier::classify_batch", id, request.id());
      c.classify_batch(req2.headers, res, kBest);
      inproc_call_ns.push_back(tr.end(s, kBatch));
      rsp.id = req2.id;
      rsp.best.resize(kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        rsp.best[i] = res[i].has_match() ? res[i].best : server::wire::kNoMatch;
      }
      buf.clear();
      s = tr.begin("server::wire::encode_response", id, request.id());
      server::wire::encode_response(rsp, buf);
      codec_ns += static_cast<double>(tr.end(s, kBatch));
      wire_bytes += static_cast<double>(buf.size());
      s = tr.begin("server::wire::decode_response", id, request.id());
      const bool rsp_ok = server::wire::decode_response(payload(buf), rsp2, err);
      codec_ns += static_cast<double>(tr.end(s, kBatch));
      if (!rsp_ok || rsp2.best != rsp.best) throw BenchError("wire codec round trip failed");
    }
    const double codec_pkts = static_cast<double>(requests * kBatch);
    r.add("server.codec_ns", codec_ns / codec_pkts, "ns", requests);
    r.add("server.bytes_per_pkt",
          seen.bytes_per_pkt >= 0 ? seen.bytes_per_pkt : wire_bytes / codec_pkts, "B/pkt",
          requests);
  }
  double rtt_p50_us = seen.wire_rtt_p50_us;
  if (rtt_p50_us < 0) {
    // No wire path in the workload: price it on an in-process server.
    server::ClassifyServer srv(c, server::ServerConfig{});
    std::thread serving([&srv] { srv.run(); });
    server::ClassifyClient client;
    std::vector<double> rtt;
    std::vector<std::uint64_t> best;
    const bool connected = client.connect("127.0.0.1", srv.port());
    for (std::size_t k = 0; connected && k < std::min<std::size_t>(calls, 512); ++k) {
      const std::size_t off = (k % batches) * kBatch;
      const std::int64_t a = now_ns();
      if (!client.classify({keys.headers.data() + off, kBatch}, best)) break;
      rtt.push_back(static_cast<double>(now_ns() - a) * 1e-3);
    }
    client.close();
    srv.request_drain();
    serving.join();
    if (rtt.empty()) throw BenchError("in-process server round trips failed");
    rtt_p50_us = median(rtt);
  }
  r.add("server.wire_tax_us", rtt_p50_us - median(durations_us(inproc_call_ns)), "us",
        inproc_call_ns.size());
  r.add("server.shed_frac", seen.shed_frac, "ratio", 1);

  // Updates in the daemon's order: submit (clone, patch, publish, cache
  // invalidate) until the future resolves, journal append, verdict
  // republish, on this memory-only classifier and a temporary journal with
  // rfipcd's default fsync policy.
  {
    const std::string dir = o.run_dir + "/trace-journal";
    remove_tree(dir);
    persist::DurableLogConfig pcfg;
    pcfg.dir = dir;
    pcfg.fsync = persist::FsyncPolicy::kBatch;
    std::string err;
    auto log = persist::DurableLog::open(pcfg, err);
    if (log == nullptr || !log->seed(*spec.rules, err)) {
      throw BenchError("temporary journal: " + err);
    }
    ruleset::RuleSet mirror = *spec.rules;
    capture::PcapReplaySource idle(frames.pcap);
    capture::CaptureLoop verdicts(idle, c, mirror);
    const UpdateScript& script = *spec.script;
    double submit_ns = 0, append_ns = 0, publish_ns = 0;
    std::uint64_t ops = 0;
    const std::uint64_t max_ops = o.small ? 40 : 400;
    // Pairs until 2 x phase_s or max_ops, whichever comes first (a
    // 131072-rule shard takes tens of ms per update).
    const auto u_end = now_ns() + static_cast<std::int64_t>(2 * phase_s * 1e9);
    for (std::uint64_t k = 0; k < max_ops && (k % 2 == 1 || now_ns() < u_end); ++k) {
      const std::uint64_t id = ++batch_id;
      SpanScope update(&tr, "update", id);
      const std::uint32_t index = script.index_of(k);
      const bool insert = script.is_insert(k);
      auto s = tr.begin("runtime::ShardedClassifier::submit_update", id, update.id());
      const bool ok =
          (insert ? c.submit_insert(index, script.rule) : c.submit_erase(index)).get();
      submit_ns += static_cast<double>(tr.end(s));
      if (!ok) throw BenchError("traced update was rejected");
      const persist::RuleOp op =
          insert ? persist::RuleOp::insert(index, script.rule) : persist::RuleOp::erase(index);
      s = tr.begin("persist::DurableLog::append_ops", id, update.id());
      const bool appended = log->append_ops({&op, 1}, err);
      append_ns += static_cast<double>(tr.end(s));
      if (!appended) throw BenchError("temporary journal append: " + err);
      if (insert) {
        mirror.insert(index, script.rule);
      } else {
        mirror.erase(index);
      }
      s = tr.begin("capture::CaptureLoop::publish_verdicts", id, update.id());
      verdicts.publish_verdicts(mirror);
      publish_ns += static_cast<double>(tr.end(s));
      ++ops;
    }
    const persist::PersistStats ps = log->stats();
    r.add("runtime.update_apply_us", submit_ns * 1e-3 / static_cast<double>(ops), "us", ops);
    r.add("persist.append_us", append_ns * 1e-3 / static_cast<double>(ops), "us", ops);
    r.add("capture.republish_us", publish_ns * 1e-3 / static_cast<double>(ops), "us", ops);
    r.add("persist.fsyncs_per_update",
          seen.fsyncs_per_update >= 0
              ? seen.fsyncs_per_update
              : ratio(static_cast<double>(ps.fsyncs), static_cast<double>(ps.records_appended)),
          "1/update", ops);
    log.reset();
    remove_tree(dir);
  }

  // How much of the end-to-end time per packet the spans on the
  // workload's own path cover; the rest is daemon glue, syscalls and
  // kernel time the replay cannot see.
  double covered_ns = classify_ns / packets;
  if (spec.path_capture) {
    covered_ns = (fp.pull_ns + fp.parse_ns + fp.pack_ns + fp.classify_ns) / frames_d;
  } else if (spec.path_wire) {
    const double calls_ns = std::accumulate(inproc_call_ns.begin(), inproc_call_ns.end(), 0.0);
    covered_ns = (codec_ns + calls_ns) / static_cast<double>(inproc_call_ns.size() * kBatch);
  }
  const double e2e_ns = seen.concurrency * 1e3 / seen.throughput_mpps;
  r.add("trace.unattributed_frac", std::clamp(1.0 - covered_ns / e2e_ns, 0.0, 1.0), "ratio", 1);

  tr.write(o.run_dir + "/spans.csv");
}

}  // namespace perfbench
