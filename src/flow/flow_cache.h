// Exact-match 5-tuple flow cache — the fast path in front of the
// classifier pipeline.
//
// Real traffic is heavily skewed: a few elephant flows carry most
// packets (RVH, arXiv:1909.07159), and SDN flow tables exploit that by
// front-ending the wildcard classifier with an exact-match table
// (arXiv:1801.00840). This cache is that front end in software: the
// packed 104-bit header is the key, the full MatchResult (best + action
// + multi, best already rebased to global rule indices) is the value,
// and a hit skips the entire shard fan-out.
//
// Structure: open-addressing hash table over power-of-two slots, split
// into fixed 64-slot segments. Each segment has its own mutex and its
// probes wrap within the segment, so concurrent classify_batch callers
// (capture rings, wire connections) contend only when they hash into
// the same segment. Within the bounded probe window replacement is LRU
// by a global access tick.
//
// Coherence (the invalidation rule): the cache carries an epoch that
// the OWNER bumps via invalidate() immediately AFTER publishing any
// snapshot that changes classification results (rule insert/erase,
// shard rebuild) and BEFORE reporting the update complete. Entries are
// stamped with the epoch they were inserted under and are only served
// while that stamp equals the current epoch, so invalidation is O(1) —
// stale entries die in place and get recycled by later inserts.
// Readers capture the epoch BEFORE pinning the slow-path snapshot and
// pass it to insert(); a reader that captured the pre-update epoch may
// have classified against the retired snapshot, but its insert is then
// rejected (or the entry is born stale), while a reader that captured
// the bumped epoch is guaranteed to pin the new snapshot. Hence no
// pre-update decision can be served once the update has completed.
// (The opposite order — bump before publish — would let a reader
// capture the NEW epoch, pin the OLD snapshot, and cache a stale
// decision that survives the update.) See DESIGN.md "Software data
// plane".
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "engines/common/match_result.h"
#include "net/header.h"

namespace rfipc::flow {

class FlowCache {
 public:
  /// Creates a cache with at least `capacity` slots (rounded up to a
  /// power of two, minimum one 64-slot segment).
  explicit FlowCache(std::size_t capacity);

  FlowCache(const FlowCache&) = delete;
  FlowCache& operator=(const FlowCache&) = delete;

  std::size_t capacity() const { return slots_; }

  /// The current coherence epoch. Capture it BEFORE the slow-path
  /// classification whose result you intend to insert().
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Invalidates every cached decision in O(1) by bumping the epoch.
  /// Must be called before publishing a snapshot that changes results.
  void invalidate();

  /// Copies the cached decision for `key` into `out` (reusing out's
  /// buffers) and returns true on a fresh-epoch hit. Counts hit/miss.
  bool lookup(const net::HeaderBits& key, engines::MatchResult& out) const;

  /// Installs `key` -> `result`, where `result` was computed after
  /// observing `epoch_seen` (from epoch()). Dropped when the epoch has
  /// moved on — the result may be stale. Evicts the LRU entry of the
  /// probe window when it is full of fresh entries.
  void insert(const net::HeaderBits& key, std::uint64_t epoch_seen,
              const engines::MatchResult& result);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;      // fresh entries displaced by LRU
    std::uint64_t invalidations = 0;  // epoch bumps
    std::size_t capacity = 0;

    double hit_rate() const {
      const auto total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
    std::string to_string() const;
  };
  Stats stats() const;
  void reset_stats();

 private:
  static constexpr std::size_t kSegmentSlots = 64;
  /// Bounded linear-probe window (wraps within the segment).
  static constexpr std::size_t kProbe = 8;

  struct Entry {
    net::HeaderBits key;
    std::uint64_t epoch = 0;  // 0 = never written; stale when != current
    std::uint64_t last_used = 0;
    engines::MatchResult result;
  };

  struct alignas(64) Segment {
    mutable std::mutex mu;
  };

  std::uint64_t hash(const net::HeaderBits& key) const;

  std::size_t slots_;
  std::size_t segments_;
  std::unique_ptr<Entry[]> entries_;
  std::unique_ptr<Segment[]> locks_;

  std::atomic<std::uint64_t> epoch_{1};
  mutable std::atomic<std::uint64_t> tick_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
};

}  // namespace rfipc::flow
