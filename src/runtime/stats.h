// Runtime observability for the batch classification layer.
//
// RuntimeStats is the counters/latency layer every runtime component
// shares: lock-free totals (packets, matches, batches, updates) plus a
// log2-bucketed latency histogram per shard, cheap enough to leave on
// in production paths. Examples and benches read a StatsSnapshot —
// a plain struct — rather than poking the atomics.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rfipc::runtime {

/// Lock-free histogram over nanosecond latencies. Bucket b counts
/// samples in [2^(b-1), 2^b); quantiles report the geometric midpoint
/// of the hit bucket, which is accurate enough for p50/p99 reporting.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  void record(std::uint64_t ns);
  std::uint64_t count() const;
  /// Approximate q-quantile (q in [0, 1]) in nanoseconds; 0 when empty.
  std::uint64_t quantile_ns(double q) const;
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Per-shard latency digest inside a snapshot. One sample per engine
/// call: each lane's slice that reaches the band is one call, so a
/// batch split over L lanes adds up to L samples per band.
struct ShardLatency {
  std::uint64_t batches = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
};

/// Failure-containment digest for one live shard (filled by the
/// ShardedClassifier from the current RCU snapshot's health records).
struct ShardHealthDigest {
  std::size_t id = 0;     // stable shard identity (survives band shifts)
  std::size_t rules = 0;  // rules currently owned
  std::uint64_t faults = 0;
  std::uint64_t degraded_packets = 0;  // packets served without this shard
  std::uint32_t reinstated = 0;        // rebuild-and-reinstate cycles
  bool quarantined = false;
};

/// One run-to-completion shard worker's hand-off counters (filled by
/// the ShardedClassifier from its ShardWorkerPool; empty when the core
/// budget allows only one lane).
struct WorkerDigest {
  std::uint64_t tasks = 0;  // slice walks executed
  /// Always 0: workers take lanes from one-slot mailboxes, with no ring
  /// to stall on. Kept, with its "ring_stalls" JSON key, only because
  /// perfbench/inproc.cpp and perfbench/daemon.cpp still read it.
  std::uint64_t ring_stalls = 0;
  std::uint64_t parks = 0;  // idle sleeps
};

/// Counters the service layer (src/server/) folds into a snapshot so
/// the STATS wire op reports the daemon and the data plane in one
/// response. All zero for in-process (serverless) deployments.
struct ServerCounters {
  std::uint64_t connections = 0;        // currently open
  std::uint64_t connections_total = 0;  // ever accepted
  std::uint64_t requests = 0;           // well-formed requests handled
  std::uint64_t shed = 0;               // requests refused by admission control
  std::uint64_t decode_errors = 0;      // malformed frames / messages
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

/// Durability-layer counters the service folds into a snapshot when a
/// write-ahead journal backs the ruleset (src/persist/). All zero —
/// and `enabled` false — for memory-only deployments.
struct PersistCounters {
  bool enabled = false;
  std::uint64_t last_seq = 0;            // newest journaled sequence number
  std::uint64_t last_checkpoint_seq = 0;
  std::uint64_t records_appended = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_failures = 0;
  std::uint64_t append_failures = 0;
  std::uint64_t segments_removed = 0;   // journal segments compacted away
  std::uint64_t dedupe_hits = 0;        // retried updates answered from the log
};

/// One capture RX ring's ingest counters (filled by the capture data
/// plane, src/capture/). frames = everything pulled off the ring;
/// forwards and drops partition the frames already decided, and a
/// frame that fails to parse is dropped, so it counts in both
/// parse_failures and dropped; overruns are kernel-side losses the
/// consumer never saw.
struct CaptureRing {
  std::uint64_t frames = 0;
  std::uint64_t batches = 0;
  std::uint64_t parse_failures = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t overruns = 0;
};

/// Capture-plane counters the daemon folds into a snapshot when an
/// inline capture loop (AF_PACKET or pcap replay) feeds the engine.
/// enabled=false — and rings empty — for RPC-only deployments.
struct CaptureCounters {
  bool enabled = false;
  std::vector<CaptureRing> rings;

  /// Sum of every ring's counters.
  CaptureRing total() const {
    CaptureRing t;
    for (const CaptureRing& r : rings) {
      t.frames += r.frames;
      t.batches += r.batches;
      t.parse_failures += r.parse_failures;
      t.forwarded += r.forwarded;
      t.dropped += r.dropped;
      t.overruns += r.overruns;
    }
    return t;
  }
};

/// A point-in-time copy of every counter, safe to print or diff.
struct StatsSnapshot {
  std::uint64_t packets = 0;
  std::uint64_t batches = 0;
  std::uint64_t matches = 0;
  std::uint64_t updates = 0;
  std::uint64_t faults = 0;          // shard lookup faults observed
  std::uint64_t quarantines = 0;     // shards taken out of service
  std::uint64_t reinstates = 0;      // shards rebuilt and returned
  std::uint64_t snapshot_swaps = 0;  // RCU snapshot publications
  std::uint64_t coalesced_ops = 0;   // update ops folded into those swaps
  // Flow-cache front end (all zero when the cache is disabled).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_invalidations = 0;
  /// Estimated engine heap footprint across live shards, in bytes
  /// (ClassifierEngine::memory_bytes summed over the current snapshot;
  /// 0 when the engines do not report).
  std::uint64_t memory_bytes = 0;
  /// Service-layer counters (all zero when no server fronts the runtime).
  ServerCounters server;
  /// Durability-layer counters (enabled=false when no journal).
  PersistCounters persist;
  /// Capture-plane counters (enabled=false when no capture loop).
  CaptureCounters capture;
  /// True while any shard is quarantined: results are still served but
  /// may miss that shard's priority band.
  bool degraded = false;
  std::vector<ShardLatency> shards;
  std::vector<ShardHealthDigest> health;
  /// Shard-worker hand-off digests, one per long-lived worker thread.
  std::vector<WorkerDigest> workers;

  /// "packets=... matches=... updates=... shard0 p50=..us p99=..us ..."
  std::string to_string() const;
  /// One-line JSON object carrying every counter (including the server
  /// block, cache block, shard latencies, and health digests), so the
  /// STATS wire op and scripts can scrape without parsing the text
  /// table.
  std::string to_json() const;
};

class RuntimeStats {
 public:
  explicit RuntimeStats(std::size_t shards);

  RuntimeStats(const RuntimeStats&) = delete;
  RuntimeStats& operator=(const RuntimeStats&) = delete;

  std::size_t shard_count() const { return shard_latency_.size(); }

  /// One completed batch of `packets` headers, `matches` of which hit.
  void record_batch(std::uint64_t packets, std::uint64_t matches);
  /// One shard engine call (one lane's slice of a batch reaching the
  /// band) finished in `latency_ns`.
  void record_shard_batch(std::size_t shard, std::uint64_t latency_ns);
  /// One rule insert/erase applied.
  void record_update();
  /// One shard lookup fault (exception or corrupted result) contained.
  void record_fault();
  /// One shard quarantined after exceeding its fault threshold.
  void record_quarantine();
  /// One quarantined shard rebuilt and returned to service.
  void record_reinstate();
  /// One RCU snapshot publication covering `ops` coalesced updates.
  void record_swap(std::uint64_t ops);

  StatsSnapshot snapshot() const;
  void reset();

 private:
  std::atomic<std::uint64_t> packets_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> matches_{0};
  std::atomic<std::uint64_t> updates_{0};
  std::atomic<std::uint64_t> faults_{0};
  std::atomic<std::uint64_t> quarantines_{0};
  std::atomic<std::uint64_t> reinstates_{0};
  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::vector<LatencyHistogram> shard_latency_;
};

}  // namespace rfipc::runtime
