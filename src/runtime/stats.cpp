#include "runtime/stats.h"

#include <bit>

namespace rfipc::runtime {
namespace {

constexpr std::size_t bucket_of(std::uint64_t ns) {
  const std::size_t b = static_cast<std::size_t>(std::bit_width(ns));
  return b < LatencyHistogram::kBuckets ? b : LatencyHistogram::kBuckets - 1;
}

/// Geometric midpoint of bucket b's [2^(b-1), 2^b) range.
constexpr std::uint64_t bucket_mid(std::size_t b) {
  if (b == 0) return 0;
  const std::uint64_t lo = std::uint64_t{1} << (b - 1);
  return lo + lo / 2;
}

}  // namespace

void LatencyHistogram::record(std::uint64_t ns) {
  buckets_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::count() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t LatencyHistogram::quantile_ns(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the q-th sample (1-based), then walk the buckets.
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) return bucket_mid(b);
  }
  return bucket_mid(kBuckets - 1);
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

RuntimeStats::RuntimeStats(std::size_t shards) : shard_latency_(shards) {}

void RuntimeStats::record_batch(std::uint64_t packets, std::uint64_t matches) {
  packets_.fetch_add(packets, std::memory_order_relaxed);
  matches_.fetch_add(matches, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
}

void RuntimeStats::record_shard_batch(std::size_t shard, std::uint64_t latency_ns) {
  // Shards are identified by stable id; a shard created after a full
  // drain can carry an id past the initial histogram set — drop those
  // samples rather than resize under concurrent readers.
  if (shard < shard_latency_.size()) shard_latency_[shard].record(latency_ns);
}

void RuntimeStats::record_update() { updates_.fetch_add(1, std::memory_order_relaxed); }

void RuntimeStats::record_fault() { faults_.fetch_add(1, std::memory_order_relaxed); }

void RuntimeStats::record_quarantine() {
  quarantines_.fetch_add(1, std::memory_order_relaxed);
}

void RuntimeStats::record_reinstate() {
  reinstates_.fetch_add(1, std::memory_order_relaxed);
}

void RuntimeStats::record_swap(std::uint64_t ops) {
  swaps_.fetch_add(1, std::memory_order_relaxed);
  coalesced_.fetch_add(ops, std::memory_order_relaxed);
}

StatsSnapshot RuntimeStats::snapshot() const {
  StatsSnapshot s;
  s.packets = packets_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.matches = matches_.load(std::memory_order_relaxed);
  s.updates = updates_.load(std::memory_order_relaxed);
  s.faults = faults_.load(std::memory_order_relaxed);
  s.quarantines = quarantines_.load(std::memory_order_relaxed);
  s.reinstates = reinstates_.load(std::memory_order_relaxed);
  s.snapshot_swaps = swaps_.load(std::memory_order_relaxed);
  s.coalesced_ops = coalesced_.load(std::memory_order_relaxed);
  s.shards.reserve(shard_latency_.size());
  for (const auto& h : shard_latency_) {
    s.shards.push_back({h.count(), h.quantile_ns(0.50), h.quantile_ns(0.99)});
  }
  return s;
}

void RuntimeStats::reset() {
  packets_.store(0, std::memory_order_relaxed);
  batches_.store(0, std::memory_order_relaxed);
  matches_.store(0, std::memory_order_relaxed);
  updates_.store(0, std::memory_order_relaxed);
  faults_.store(0, std::memory_order_relaxed);
  quarantines_.store(0, std::memory_order_relaxed);
  reinstates_.store(0, std::memory_order_relaxed);
  swaps_.store(0, std::memory_order_relaxed);
  coalesced_.store(0, std::memory_order_relaxed);
  for (auto& h : shard_latency_) h.reset();
}

std::string StatsSnapshot::to_json() const {
  auto u = [](std::uint64_t v) { return std::to_string(v); };
  std::string out = "{";
  out += "\"packets\":" + u(packets) + ",\"batches\":" + u(batches) +
         ",\"matches\":" + u(matches) + ",\"updates\":" + u(updates) +
         ",\"faults\":" + u(faults) + ",\"quarantines\":" + u(quarantines) +
         ",\"reinstates\":" + u(reinstates) +
         ",\"snapshot_swaps\":" + u(snapshot_swaps) +
         ",\"coalesced_ops\":" + u(coalesced_ops) +
         ",\"memory_bytes\":" + u(memory_bytes);
  out += ",\"cache\":{\"hits\":" + u(cache_hits) + ",\"misses\":" + u(cache_misses) +
         ",\"evictions\":" + u(cache_evictions) +
         ",\"invalidations\":" + u(cache_invalidations) + "}";
  out += ",\"server\":{\"connections\":" + u(server.connections) +
         ",\"connections_total\":" + u(server.connections_total) +
         ",\"requests\":" + u(server.requests) + ",\"shed\":" + u(server.shed) +
         ",\"decode_errors\":" + u(server.decode_errors) +
         ",\"bytes_in\":" + u(server.bytes_in) +
         ",\"bytes_out\":" + u(server.bytes_out) + "}";
  out += ",\"persist\":{\"enabled\":" + std::string(persist.enabled ? "true" : "false") +
         ",\"last_seq\":" + u(persist.last_seq) +
         ",\"last_checkpoint_seq\":" + u(persist.last_checkpoint_seq) +
         ",\"records_appended\":" + u(persist.records_appended) +
         ",\"bytes_appended\":" + u(persist.bytes_appended) +
         ",\"fsyncs\":" + u(persist.fsyncs) +
         ",\"checkpoints\":" + u(persist.checkpoints) +
         ",\"checkpoint_failures\":" + u(persist.checkpoint_failures) +
         ",\"append_failures\":" + u(persist.append_failures) +
         ",\"segments_removed\":" + u(persist.segments_removed) +
         ",\"dedupe_hits\":" + u(persist.dedupe_hits) + "}";
  {
    const CaptureRing t = capture.total();
    out += ",\"capture\":{\"enabled\":" +
           std::string(capture.enabled ? "true" : "false") +
           ",\"frames\":" + u(t.frames) + ",\"batches\":" + u(t.batches) +
           ",\"parse_failures\":" + u(t.parse_failures) +
           ",\"forwarded\":" + u(t.forwarded) + ",\"dropped\":" + u(t.dropped) +
           ",\"overruns\":" + u(t.overruns) + ",\"rings\":[";
    for (std::size_t r = 0; r < capture.rings.size(); ++r) {
      const CaptureRing& ring = capture.rings[r];
      if (r > 0) out += ",";
      out += "{\"frames\":" + u(ring.frames) + ",\"batches\":" + u(ring.batches) +
             ",\"parse_failures\":" + u(ring.parse_failures) +
             ",\"forwarded\":" + u(ring.forwarded) +
             ",\"dropped\":" + u(ring.dropped) +
             ",\"overruns\":" + u(ring.overruns) + "}";
    }
    out += "]}";
  }
  out += std::string(",\"degraded\":") + (degraded ? "true" : "false");
  out += ",\"shards\":[";
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (s > 0) out += ",";
    out += "{\"batches\":" + u(shards[s].batches) + ",\"p50_ns\":" + u(shards[s].p50_ns) +
           ",\"p99_ns\":" + u(shards[s].p99_ns) + "}";
  }
  out += "],\"health\":[";
  for (std::size_t i = 0; i < health.size(); ++i) {
    const ShardHealthDigest& h = health[i];
    if (i > 0) out += ",";
    out += "{\"id\":" + u(h.id) + ",\"rules\":" + u(h.rules) +
           ",\"faults\":" + u(h.faults) +
           ",\"degraded_packets\":" + u(h.degraded_packets) +
           ",\"reinstated\":" + u(h.reinstated) +
           ",\"quarantined\":" + (h.quarantined ? "true" : "false") + "}";
  }
  out += "],\"workers\":[";
  for (std::size_t w = 0; w < workers.size(); ++w) {
    if (w > 0) out += ",";
    out += "{\"tasks\":" + u(workers[w].tasks) +
           ",\"ring_stalls\":" + u(workers[w].ring_stalls) +
           ",\"parks\":" + u(workers[w].parks) + "}";
  }
  out += "]}";
  return out;
}

std::string StatsSnapshot::to_string() const {
  std::string out = "packets=" + std::to_string(packets) +
                    " matches=" + std::to_string(matches) +
                    " batches=" + std::to_string(batches) +
                    " updates=" + std::to_string(updates) +
                    " swaps=" + std::to_string(snapshot_swaps) +
                    " faults=" + std::to_string(faults);
  if (memory_bytes > 0) out += " mem=" + std::to_string(memory_bytes) + "B";
  if (cache_hits + cache_misses + cache_invalidations > 0) {
    out += " cache{hits=" + std::to_string(cache_hits) +
           " misses=" + std::to_string(cache_misses) +
           " evictions=" + std::to_string(cache_evictions) +
           " invalidations=" + std::to_string(cache_invalidations) + "}";
  }
  if (server.connections_total + server.requests + server.decode_errors > 0) {
    out += " server{conns=" + std::to_string(server.connections) + "/" +
           std::to_string(server.connections_total) +
           " requests=" + std::to_string(server.requests) +
           " shed=" + std::to_string(server.shed) +
           " decode_errors=" + std::to_string(server.decode_errors) +
           " in=" + std::to_string(server.bytes_in) + "B" +
           " out=" + std::to_string(server.bytes_out) + "B}";
  }
  if (persist.enabled) {
    out += " persist{last_seq=" + std::to_string(persist.last_seq) +
           " ckpt_seq=" + std::to_string(persist.last_checkpoint_seq) +
           " records=" + std::to_string(persist.records_appended) +
           " fsyncs=" + std::to_string(persist.fsyncs) +
           " checkpoints=" + std::to_string(persist.checkpoints) +
           " dedupe_hits=" + std::to_string(persist.dedupe_hits) + "}";
  }
  if (capture.enabled) {
    const CaptureRing t = capture.total();
    out += " capture{rings=" + std::to_string(capture.rings.size()) +
           " frames=" + std::to_string(t.frames) +
           " parse_failures=" + std::to_string(t.parse_failures) +
           " forwarded=" + std::to_string(t.forwarded) +
           " dropped=" + std::to_string(t.dropped) +
           " overruns=" + std::to_string(t.overruns) + "}";
  }
  if (degraded) out += " DEGRADED";
  for (const auto& h : health) {
    if (h.quarantined || h.faults > 0 || h.reinstated > 0) {
      out += " health" + std::to_string(h.id) + "{faults=" + std::to_string(h.faults) +
             (h.quarantined ? " QUARANTINED" : "") +
             " reinstated=" + std::to_string(h.reinstated) + "}";
    }
  }
  for (std::size_t s = 0; s < shards.size(); ++s) {
    out += " shard" + std::to_string(s) + "{batches=" + std::to_string(shards[s].batches) +
           " p50=" + std::to_string(shards[s].p50_ns) + "ns" +
           " p99=" + std::to_string(shards[s].p99_ns) + "ns}";
  }
  for (std::size_t w = 0; w < workers.size(); ++w) {
    out += " worker" + std::to_string(w) + "{tasks=" + std::to_string(workers[w].tasks) +
           " parks=" + std::to_string(workers[w].parks) + "}";
  }
  return out;
}

}  // namespace rfipc::runtime
