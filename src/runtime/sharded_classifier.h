// Batched, sharded classification runtime — the software analogue of
// the paper's Section IV-A multi-pipeline packing, hardened for live
// updates and shard failures.
//
// The ruleset is partitioned into S contiguous priority bands; band s
// becomes an independent shard engine (any spec the factory accepts, so
// a shard is "one pipeline" of whichever architecture you pick). A
// batch of packed headers is split into contiguous slices, one per
// lane, and each lane walks every band in priority order over its own
// slice, writing straight into its slice of the results with band-local
// indices rebased to global ones. The calling thread is lane 0; each
// further lane is offered to a long-lived run-to-completion shard worker
// (runtime/shard_workers.h), and the caller walks it itself if that
// worker has not started it by the time lane 0 is done. A best-only
// walk hands each band only the packets no higher band matched; a
// multi-match walk visits every band and ORs in its rebased bits. This
// is how the paper scales StrideBV (Sections IV-A and V-A): more packets
// against a full copy of the rules. Lane count derives from one core
// budget (core_budget/reserved_cores below); a budget of one core walks
// the whole batch inline with no hand-off at all.
//
// Concurrency contract (lock-free reads, RCU writes): classify() and
// classify_batch() may be called from any number of threads at any
// time, including while updates are in flight — they pin an immutable
// shard-set snapshot through util::RcuCell and never block, never lock,
// and never observe a half-applied update. Updates from any thread are
// funneled through an internal UpdateQueue whose single applier thread
// clones the affected shard engine, patches the clone off the lookup
// path, and publishes a new snapshot; pending ops are coalesced into
// one snapshot swap. An op's completion future resolves once its
// snapshot is published (every later lookup sees it). This replaces the
// old "updates must be externally serialized against lookups" caveat —
// the same guarantee StrideBV's on-the-fly hardware update path gives a
// single pipeline, extended to the multi-pipeline pack.
//
// Actions ride the snapshot: each shard carries its band's rules next
// to its engine, and classify_batch() fills MatchResult::action from
// the winning band's rules under the same pin that answered `best`, so
// the action of a resolved update is seen by every later lookup too.
//
// Failure containment: a shard whose engine throws or returns a
// corrupted result (best index out of range — what a flaky stage
// memory would produce; see engines::FaultInjectorEngine for the test
// rig) is contained, not propagated: that call's packets fall through
// to the next band, as if the band matched nothing. After
// `quarantine_after` consecutive faulting calls the shard is
// quarantined: lookups keep being served from the healthy shards with
// StatsSnapshot::degraded set (its priority band temporarily yields no
// matches). If rebuild is enabled, the update plane rebuilds the shard
// from the band rules its snapshot carries, with exponential backoff,
// and reinstates it under fresh health.
//
// Erasing the last rule of a band collapses the band (the shard is
// removed and the bases merge) instead of failing; inserting into a
// fully drained classifier re-seeds a shard.
//
// Flow cache: with flow_cache_capacity > 0 an exact-match 5-tuple
// cache (flow::FlowCache) fronts the shard fan-out — packets whose
// packed header hits the cache are answered (best and action) without
// touching any shard, and only the misses are compacted into a
// sub-batch for the pipeline. A batch reads the cache epoch once,
// probes lock-free without counting, and adds its hits and misses in
// one call. Entries hold no multi-match vector, so a multi-match
// caller (want_multi on a multi-capable classifier) skips the probe:
// its packets count as misses and its results refill {best, action}.
// The cache epoch is bumped on every snapshot publication (update swap
// or shard reinstatement), so by the time an update's completion
// future resolves no pre-update decision can still be served; see
// flow/flow_cache.h for the exact coherence argument.
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engines/common/engine.h"
#include "engines/common/scratch.h"
#include "flow/flow_cache.h"
#include "runtime/shard_workers.h"
#include "runtime/stats.h"
#include "runtime/update_queue.h"
#include "util/rcu.h"

namespace rfipc::runtime {

/// Fewest packets the fan-out hands one lane: a batch is split into
/// contiguous slices of at least this many, so a small batch uses fewer
/// lanes and one under 2 * kMinLaneRows never leaves the caller.
inline constexpr std::size_t kMinLaneRows = 16;

/// Rebuild backoff growth per failed attempt, and its ceiling.
inline constexpr double kRebuildBackoffFactor = 2.0;
inline constexpr std::uint32_t kRebuildBackoffMaxMs = 1000;

/// What to do about a shard that keeps faulting.
struct FailurePolicy {
  /// Consecutive faulting engine calls before a shard is quarantined
  /// (min 1). A call is one lane's slice reaching the band, so one
  /// batch split over L lanes can charge a band up to L faults.
  std::size_t quarantine_after = 4;
  /// Rebuild quarantined shards in the background and reinstate them.
  bool rebuild = true;
  /// First delay between rebuild attempts; each failure multiplies it
  /// by kRebuildBackoffFactor, up to kRebuildBackoffMaxMs.
  std::uint32_t backoff_initial_ms = 10;
  /// Factory spec used for the rebuilt engine; empty = engine_spec.
  /// Point this at a healthy spec to model swapping out bad hardware.
  std::string rebuild_spec;
};

struct ShardedConfig {
  /// Number of shards (pipelines). Clamped to the rule count so no
  /// shard starts empty.
  std::size_t shards = 4;
  /// Large-N band-width cap: when > 0 the shard count is raised to
  /// ceil(rules / max_band_rules) so no priority band ever seeds wider
  /// than this — which bounds each shard engine's per-stage state (a
  /// StrideBV band stays at most max_band_rules bits per stage no
  /// matter how large the total ruleset grows). Applies to the initial
  /// partition; live inserts may grow a band past the cap until it is
  /// re-seeded. 0 = uncapped (the shard count alone decides widths).
  std::size_t max_band_rules = 0;
  /// Factory spec every shard engine is built from.
  std::string engine_spec = "stridebv:4";
  /// Total cores this process may spend; 0 = hardware_concurrency().
  /// The fan-out runs min(shards, core_budget - reserved_cores) lanes,
  /// never fewer than one, each walking every band over its own slice
  /// of the batch: the calling thread is lane 0 and each further lane
  /// is offered to a run-to-completion shard worker, so a budget of one
  /// core classifies fully inline with no worker threads at all.
  std::size_t core_budget = 0;
  /// Cores already spoken for by co-resident threads (epoll reactor,
  /// update waiter, capture threads, ...). rfipcd passes
  /// server::kServiceThreads here.
  std::size_t reserved_cores = 0;
  /// Shard failure containment knobs.
  FailurePolicy failure;
  /// Exact-match flow-cache slots fronting the shard fan-out (rounded
  /// up to a power of two); 0 disables the cache.
  std::size_t flow_cache_capacity = 0;
  /// Durability hook (write-ahead persistence). Called on the applier
  /// thread with the ops a batch actually applied, AFTER the new
  /// snapshot is published (flow cache already invalidated) but BEFORE
  /// the batch's completion futures resolve — so when the hook
  /// journals + fsyncs, a resolved future (and therefore a wire OK)
  /// implies the op is both published and durable. Exceptions are
  /// contained: the snapshot cannot be unpublished, so a throwing hook
  /// is logged and the futures still resolve (the service degrades to
  /// memory-only durability rather than wedging the update plane).
  std::function<void(std::span<const UpdateOp>)> durability_hook;
};

class ShardedClassifier final : public engines::ClassifierEngine {
 public:
  ShardedClassifier(ruleset::RuleSet rules, ShardedConfig config = {});
  ~ShardedClassifier() override;

  std::string name() const override;
  std::size_t rule_count() const override;
  bool supports_multi_match() const override;
  /// Always true: the update plane falls back to a factory rebuild of
  /// the owning shard when its engine cannot patch incrementally.
  bool supports_update() const override { return true; }

  /// A one-element classify_batch: the single lookup path.
  engines::MatchResult classify(const net::HeaderBits& header) const override;
  void classify_batch(std::span<const net::HeaderBits> headers,
                      std::span<engines::MatchResult> results,
                      const engines::BatchOptions& opts) const override;
  using engines::ClassifierEngine::classify_batch;

  /// Synchronous update wrappers: route through the update plane and
  /// wait for the publishing snapshot swap. Safe to call concurrently
  /// with lookups and with each other.
  bool insert_rule(std::size_t index, const ruleset::Rule& rule) override;
  bool erase_rule(std::size_t index) override;

  /// Asynchronous updates: the future resolves to the op's validation
  /// result once the snapshot containing it is published. `token` is
  /// the optional idempotency token handed to the durability hook.
  std::future<bool> submit_insert(std::size_t index, ruleset::Rule rule,
                                  std::uint64_t token = 0);
  std::future<bool> submit_erase(std::size_t index, std::uint64_t token = 0);
  /// Blocks until every previously submitted update has been applied.
  void flush_updates();

  std::size_t shard_count() const;
  /// Rules currently owned by shard s.
  std::size_t shard_size(std::size_t s) const;
  /// Pins shard s's engine; safe to hold across concurrent updates.
  std::shared_ptr<const engines::ClassifierEngine> shard_engine(std::size_t s) const;

  /// The exact-match front end, or nullptr when disabled.
  const flow::FlowCache* flow_cache() const { return cache_.get(); }

  /// Sum of the live shard engines' footprints.
  std::uint64_t memory_bytes() const override;

  const RuntimeStats& stats() const { return stats_; }
  /// Counters plus the per-shard health/quarantine digest and the
  /// degraded flag from the current snapshot.
  StatsSnapshot stats_snapshot() const;
  void reset_stats() const { stats_.reset(); }

 private:
  /// Mutable per-shard health record, shared by reference between
  /// consecutive snapshots of the same shard incarnation. A reinstated
  /// shard gets a FRESH record: readers still holding the pre-rebuild
  /// snapshot keep seeing the old record's quarantined flag, so they
  /// can never run the stale engine.
  struct ShardHealth {
    std::atomic<std::uint32_t> consecutive_faults{0};
    std::atomic<std::uint64_t> faults_total{0};
    std::atomic<std::uint64_t> degraded_packets{0};
    std::atomic<std::uint32_t> reinstated{0};
    std::atomic<bool> quarantined{false};
  };

  struct Shard {
    std::shared_ptr<const engines::ClassifierEngine> engine;
    /// The band's rules, local index == engine rule index: the action
    /// source for lookups and the source of factory rebuilds (clone-less
    /// engines, quarantine reinstatement). Copied on write.
    std::shared_ptr<const ruleset::RuleSet> rules;
    std::shared_ptr<ShardHealth> health;
    std::size_t id = 0;  // stable across band shifts; indexes latency stats
  };

  /// The immutable RCU snapshot: engines, band rules and priority-band
  /// bases.
  /// bases.size() == shards.size() + 1, bases[0] == 0, and shard s owns
  /// global priorities [bases[s], bases[s+1]).
  struct ShardSet {
    std::vector<Shard> shards;
    std::vector<std::size_t> bases{0};
  };

  /// Writer-plane scratch state while applying one coalesced batch.
  struct Working {
    std::vector<Shard> shards;
    std::vector<std::size_t> bases;
    std::vector<std::shared_ptr<ruleset::RuleSet>> rules;  // this batch's band copies
    std::vector<engines::EnginePtr> patched;        // pending replacement engines
    std::vector<unsigned char> needs_rebuild;       // factory rebuild fallback
    bool dirty = false;
  };

  /// One lane's walk state. Buffers keep their capacity across
  /// batches (see DESIGN.md "Execution model").
  struct LaneScratch {
    /// Best-only walk: the slice's packets no band has matched yet, and
    /// their positions in the slice.
    std::vector<net::HeaderBits> headers;
    std::vector<std::size_t> pos;
    /// One band's results for the packets it was handed (the first
    /// band of a best-only walk writes the caller's results instead).
    std::vector<engines::MatchResult> band;
  };

  /// Caller-side per-batch state, one per calling thread (see
  /// classify_batch), so the fan-out allocates nothing in steady state.
  struct FanScratch {
    std::vector<std::size_t> eligible;
    std::vector<LaneScratch> lanes;  // indexed by lane
    /// Flow-cache miss sub-batch results.
    std::vector<engines::MatchResult> miss;
    /// Flow-cache miss compaction (headers + caller indices).
    engines::ScratchArena arena;
  };

  /// What a lane needs to walk its slice of one batch: plain data,
  /// stack-owned by the caller for the batch's duration (the caller's
  /// RCU pin keeps `snap` alive).
  struct FanContext {
    const ShardedClassifier* self = nullptr;
    const ShardSet* snap = nullptr;
    std::span<const net::HeaderBits> headers;
    std::span<engines::MatchResult> results;
    engines::BatchOptions opts;
    FanScratch* scratch = nullptr;
    std::size_t lanes = 1;
  };

  static std::size_t owning_shard(const std::vector<std::size_t>& bases, std::size_t g);

  // Reader plane.
  /// Splits `headers` into one contiguous slice per lane — across the
  /// run-to-completion shard workers when lanes > 1, inline otherwise
  /// — and has each lane walk the healthy bands of `snap` over its
  /// slice into `results`. No stats.
  void fan_out(const ShardSet& snap, std::span<const net::HeaderBits> headers,
               std::span<engines::MatchResult> results,
               const engines::BatchOptions& opts, FanScratch& scratch) const;
  /// Runs `shard`'s engine on `headers` into `out` under fault
  /// containment: a throw or an out-of-range result charges the shard
  /// a fault (quarantining it after quarantine_after in a row); a good
  /// call clears its fault streak and records its latency. Returns
  /// whether `out` holds valid results.
  bool run_contained(const Shard& shard, std::span<const net::HeaderBits> headers,
                     std::span<engines::MatchResult> out,
                     const engines::BatchOptions& opts) const;
  /// Lane `lane`'s share of a fan-out: walks every eligible band in
  /// priority order over its slice of ctx.headers, straight into the
  /// same slice of ctx.results.
  void walk_slice(const FanContext& ctx, std::size_t lane) const;
  /// ShardWorkerPool task trampoline: ctx is a FanContext.
  static void walk_slice_entry(void* ctx, std::size_t lane);
  bool validate_results(std::span<const engines::MatchResult> results,
                        std::size_t shard_rules) const;
  void record_shard_fault(const Shard& shard, std::uint64_t packets) const;

  // Writer plane (UpdateQueue applier thread only).
  void apply_batch(std::vector<UpdateQueue::Pending>& batch);
  bool apply_one(Working& w, const UpdateOp& op);
  /// Band s's rules, copied into `w` on the batch's first write to them.
  static ruleset::RuleSet& band_rules(Working& w, std::size_t s);
  void patch_engine(Working& w, std::size_t s,
                    const std::function<bool(engines::ClassifierEngine&)>& patch);
  void schedule_rebuild(std::size_t id, std::uint32_t attempt) const;
  void rebuild_shard(std::size_t id, std::uint32_t attempt);

  ShardedConfig config_;
  mutable RuntimeStats stats_;
  /// Long-lived run-to-completion shard workers, one per lane after
  /// lane 0 (the calling thread), so it is empty when the core budget
  /// only affords one lane.
  mutable ShardWorkerPool workers_;
  /// Exact-match front end; null when flow_cache_capacity == 0.
  std::unique_ptr<flow::FlowCache> cache_;
  util::RcuCell<ShardSet> snapshot_;
  std::size_t next_id_ = 0;
  /// Last member: its applier thread touches everything above, so it
  /// must start last and stop first.
  std::unique_ptr<UpdateQueue> queue_;
};

}  // namespace rfipc::runtime
