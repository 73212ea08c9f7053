// Exact-match 5-tuple flow cache — the fast path in front of the
// classifier pipeline.
//
// Real traffic is heavily skewed: a few elephant flows carry most
// packets (RVH, arXiv:1909.07159), and SDN flow tables exploit that by
// front-ending the wildcard classifier with an exact-match table
// (arXiv:1801.00840). This cache is that front end in software: the
// packed 104-bit header is the key, the best-only decision {best,
// action} (best already rebased to global rule indices) is the value,
// and a hit skips the entire shard fan-out. Multi-match vectors are not
// cached.
//
// Structure: open-addressing hash table over power-of-two slots, split
// into fixed 64-slot segments; a key's bounded probe window of kProbe
// slots wraps within its segment. Like the paper's stage memories,
// which only the update port writes, a hit writes nothing shared:
//
//  * Probes take no lock. Each slot holds {key, epoch, best, action} in
//    atomic words behind a sequence number that is odd while an insert
//    is rewriting the slot. A probe reads the sequence, the fields and
//    the sequence again, all with acquire loads; an odd or changed
//    sequence counts as a miss, so a probe never returns a torn entry.
//  * Inserts take their segment's mutex, so one writer at a time
//    rewrites a segment's slots: odd sequence, fields, even sequence,
//    all with release stores.
//  * Replacement is CLOCK. A hit sets its slot's referenced flag, and
//    only when the flag is clear, so a hot slot's line stays shared. An
//    insert takes the key's own fresh slot, else a stale or empty one,
//    else sweeps the window clearing referenced flags and evicts the
//    first slot whose flag was already clear (the window's first slot
//    when every flag was set).
//  * Counting is the caller's: probe() counts nothing, and a batch adds
//    its hits and misses in one count() call, on a cache line apart
//    from the epoch that every probe reads. lookup() is probe() plus
//    count() for single-key callers.
//
// Coherence (the invalidation rule): the cache carries an epoch that
// the OWNER bumps via invalidate() immediately AFTER publishing any
// snapshot that changes classification results (rule insert/erase,
// shard rebuild) and BEFORE reporting the update complete. Entries are
// stamped with the epoch they were inserted under and are only served
// to a reader whose captured epoch equals that stamp, so invalidation
// is O(1) — stale entries die in place and get recycled by later
// inserts. Readers capture the epoch BEFORE pinning the slow-path
// snapshot and pass it to insert(); a reader that captured the
// pre-update epoch may have classified against the retired snapshot,
// but its insert is then rejected (or the entry is born stale), while a
// reader that captured the bumped epoch is guaranteed to pin the new
// snapshot. Hence no pre-update decision can be served once the update
// has completed. (The opposite order — bump before publish — would let
// a reader capture the NEW epoch, pin the OLD snapshot, and cache a
// stale decision that survives the update.) See DESIGN.md "Software
// data plane".
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

  /// Lock-free and uncounted: on a hit for `key` stamped `epoch` (from
  /// epoch()), writes the cached best and action into `out`, empties
  /// out.multi and returns true. Writes nothing shared unless it sets
  /// the slot's referenced flag.
  bool probe(const net::HeaderBits& key, std::uint64_t epoch,
             engines::MatchResult& out) const;

  /// Adds `hits` and `misses` probes to the counters (one call per
  /// batch).
  void count(std::uint64_t hits, std::uint64_t misses) const;

  /// probe() at the current epoch, counted.
  bool lookup(const net::HeaderBits& key, engines::MatchResult& out) const;

  /// Installs `key` -> {result.best, result.action}, where `result` was
  /// computed after observing `epoch_seen` (from epoch()). Dropped when
  /// the epoch has moved on — the result may be stale. Evicts by CLOCK
  /// when the probe window is full of fresh entries.
  void insert(const net::HeaderBits& key, std::uint64_t epoch_seen,
              const engines::MatchResult& result);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;      // fresh entries displaced by CLOCK
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

  /// One slot, 48 bytes. Only inserts under the segment mutex write
  /// seq and the fields; probes also set `referenced`.
  struct Entry {
    std::atomic<std::uint32_t> seq{0};  // odd while an insert rewrites the slot
    std::atomic<std::uint32_t> referenced{0};  // CLOCK bit
    std::atomic<std::uint64_t> key_lo{0};      // key bytes 0-7
    std::atomic<std::uint64_t> key_hi{0};      // key bytes 8-12
    std::atomic<std::uint64_t> epoch{0};  // 0 = never written; stale when != current
    std::atomic<std::uint64_t> best{0};
    std::atomic<std::uint64_t> action{0};  // ruleset::Action, packed
  };
  static_assert(sizeof(Entry) == 48);

  struct alignas(64) Segment {
    std::mutex mu;
  };

  Entry& slot(std::uint64_t h, std::size_t i) const;

  std::size_t slots_;
  std::size_t segments_;
  std::unique_ptr<Entry[]> entries_;
  std::unique_ptr<Segment[]> locks_;

  /// Read by every batch; written only by invalidate().
  alignas(64) std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::uint64_t> invalidations_{0};
  /// Written once per batch (hits, misses) or per insert.
  alignas(64) mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace rfipc::flow
