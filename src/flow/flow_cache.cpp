#include "flow/flow_cache.h"

#include <cstdio>
#include <cstring>

namespace rfipc::flow {
namespace {

constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FlowCache::FlowCache(std::size_t capacity) {
  std::size_t slots = kSegmentSlots;
  while (slots < capacity) slots <<= 1;
  slots_ = slots;
  segments_ = slots_ / kSegmentSlots;
  entries_ = std::make_unique<Entry[]>(slots_);
  locks_ = std::make_unique<Segment[]>(segments_);
}

std::uint64_t FlowCache::hash(const net::HeaderBits& key) const {
  // 13 key bytes -> two words (overlapping load keeps it branchless).
  const auto& b = key.bytes();
  std::uint64_t lo;
  std::uint64_t hi;
  std::memcpy(&lo, b.data(), 8);
  std::memcpy(&hi, b.data() + 5, 8);
  return splitmix64(lo ^ splitmix64(hi));
}

void FlowCache::invalidate() {
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

bool FlowCache::lookup(const net::HeaderBits& key, engines::MatchResult& out) const {
  const std::uint64_t h = hash(key);
  const std::size_t seg = (h >> 32) & (segments_ - 1);
  const std::size_t base = seg * kSegmentSlots;
  const std::uint64_t current = epoch_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(locks_[seg].mu);
  for (std::size_t i = 0; i < kProbe; ++i) {
    Entry& e = entries_[base + ((h + i) & (kSegmentSlots - 1))];
    if (e.epoch == current && e.key == key) {
      e.last_used = tick_.fetch_add(1, std::memory_order_relaxed);
      // Copy-assign reuses out's heap buffers when capacity suffices.
      out.best = e.result.best;
      out.action = e.result.action;
      out.multi = e.result.multi;
      hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void FlowCache::insert(const net::HeaderBits& key, std::uint64_t epoch_seen,
                       const engines::MatchResult& result) {
  const std::uint64_t h = hash(key);
  const std::size_t seg = (h >> 32) & (segments_ - 1);
  const std::size_t base = seg * kSegmentSlots;
  std::lock_guard<std::mutex> lock(locks_[seg].mu);
  // A publication may have raced with the slow-path classification that
  // produced `result`; inserting it now could cache a decision from the
  // retired snapshot. Epochs only move forward, so comparing under the
  // segment lock is enough to reject every such straggler.
  if (epoch_seen != epoch_.load(std::memory_order_acquire)) return;
  // Victim preference: (1) the key's own entry (refresh in place),
  // (2) an empty or stale-epoch slot, (3) the LRU fresh entry of the
  // window — only case (3) is a real eviction.
  Entry* victim = nullptr;
  bool victim_fresh = false;
  bool refresh = false;
  for (std::size_t i = 0; i < kProbe; ++i) {
    Entry& e = entries_[base + ((h + i) & (kSegmentSlots - 1))];
    const bool fresh = e.epoch == epoch_seen;
    if (fresh && e.key == key) {
      victim = &e;
      refresh = true;
      break;
    }
    if (!fresh) {
      if (victim == nullptr || victim_fresh) {
        victim = &e;
        victim_fresh = false;
      }
    } else if (victim == nullptr ||
               (victim_fresh && e.last_used < victim->last_used)) {
      victim = &e;
      victim_fresh = true;
    }
  }
  if (victim_fresh && !refresh) evictions_.fetch_add(1, std::memory_order_relaxed);
  victim->key = key;
  victim->epoch = epoch_seen;
  victim->last_used = tick_.fetch_add(1, std::memory_order_relaxed);
  victim->result.best = result.best;
  victim->result.action = result.action;
  victim->result.multi = result.multi;
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

FlowCache::Stats FlowCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.capacity = slots_;
  return s;
}

void FlowCache::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  insertions_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  invalidations_.store(0, std::memory_order_relaxed);
}

std::string FlowCache::Stats::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f%%", hit_rate() * 100.0);
  return "hits=" + std::to_string(hits) + " misses=" + std::to_string(misses) +
         " (" + buf + ") evictions=" + std::to_string(evictions) +
         " invalidations=" + std::to_string(invalidations);
}

}  // namespace rfipc::flow
