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

/// The 13 key bytes as two words: bytes 0-7, and bytes 8-12 zero-extended.
struct PackedKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  explicit PackedKey(const net::HeaderBits& key) {
    const auto& b = key.bytes();
    std::memcpy(&lo, b.data(), 8);
    std::memcpy(&hi, b.data() + 8, 5);
  }
  std::uint64_t hash() const { return splitmix64(lo ^ splitmix64(hi)); }
};

std::uint64_t pack_action(ruleset::Action a) {
  return static_cast<std::uint64_t>(a.kind) | (std::uint64_t{a.port} << 8);
}

ruleset::Action unpack_action(std::uint64_t v) {
  return {static_cast<ruleset::Action::Kind>(v & 0xff), static_cast<std::uint16_t>(v >> 8)};
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

FlowCache::Entry& FlowCache::slot(std::uint64_t h, std::size_t i) const {
  const std::size_t base = ((h >> 32) & (segments_ - 1)) * kSegmentSlots;
  return entries_[base + ((h + i) & (kSegmentSlots - 1))];
}

void FlowCache::invalidate() {
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

bool FlowCache::probe(const net::HeaderBits& key, std::uint64_t epoch,
                      engines::MatchResult& out) const {
  const PackedKey k(key);
  const std::uint64_t h = k.hash();
  for (std::size_t i = 0; i < kProbe; ++i) {
    Entry& e = slot(h, i);
    const std::uint32_t seq = e.seq.load(std::memory_order_acquire);
    if ((seq & 1) != 0) continue;  // mid-insert: counts as a miss
    if (e.key_lo.load(std::memory_order_acquire) != k.lo ||
        e.key_hi.load(std::memory_order_acquire) != k.hi ||
        e.epoch.load(std::memory_order_acquire) != epoch) {
      continue;
    }
    const std::uint64_t best = e.best.load(std::memory_order_acquire);
    const std::uint64_t action = e.action.load(std::memory_order_acquire);
    // The field loads are acquire, so this re-read cannot move above
    // them; an insert that overlapped them has moved seq on.
    if (e.seq.load(std::memory_order_acquire) != seq) continue;
    if (e.referenced.load(std::memory_order_relaxed) == 0) {
      e.referenced.store(1, std::memory_order_relaxed);
    }
    out.best = static_cast<std::size_t>(best);
    out.action = unpack_action(action);
    out.multi.assign_zeros(0);
    return true;
  }
  return false;
}

void FlowCache::count(std::uint64_t hits, std::uint64_t misses) const {
  if (hits != 0) hits_.fetch_add(hits, std::memory_order_relaxed);
  if (misses != 0) misses_.fetch_add(misses, std::memory_order_relaxed);
}

bool FlowCache::lookup(const net::HeaderBits& key, engines::MatchResult& out) const {
  const bool hit = probe(key, epoch(), out);
  count(hit ? 1 : 0, hit ? 0 : 1);
  return hit;
}

void FlowCache::insert(const net::HeaderBits& key, std::uint64_t epoch_seen,
                       const engines::MatchResult& result) {
  const PackedKey k(key);
  const std::uint64_t h = k.hash();
  std::lock_guard<std::mutex> lock(locks_[(h >> 32) & (segments_ - 1)].mu);
  // A publication may have raced with the slow-path classification that
  // produced `result`; inserting it now could cache a decision from the
  // retired snapshot. Epochs only move forward, so comparing under the
  // segment lock is enough to reject every such straggler.
  if (epoch_seen != epoch_.load(std::memory_order_acquire)) return;
  // Victim preference: (1) the key's own fresh slot (refresh in place),
  // (2) an empty or stale-epoch slot, (3) CLOCK over the window — only
  // case (3) is a real eviction. The segment lock orders this insert
  // after every earlier writer of these slots, so relaxed loads suffice.
  Entry* victim = nullptr;
  Entry* open = nullptr;
  for (std::size_t i = 0; i < kProbe && victim == nullptr; ++i) {
    Entry& e = slot(h, i);
    if (e.epoch.load(std::memory_order_relaxed) != epoch_seen) {
      if (open == nullptr) open = &e;
    } else if (e.key_lo.load(std::memory_order_relaxed) == k.lo &&
               e.key_hi.load(std::memory_order_relaxed) == k.hi) {
      victim = &e;
    }
  }
  if (victim == nullptr) victim = open;
  if (victim == nullptr) {
    for (std::size_t i = 0; i < kProbe && victim == nullptr; ++i) {
      Entry& e = slot(h, i);
      if (e.referenced.load(std::memory_order_relaxed) == 0) {
        victim = &e;
      } else {
        e.referenced.store(0, std::memory_order_relaxed);
      }
    }
    if (victim == nullptr) victim = &slot(h, 0);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  // Each release store publishes the odd sequence before it, so a probe
  // that reads any new field also reads a changed sequence.
  const std::uint32_t seq = victim->seq.load(std::memory_order_relaxed);
  victim->seq.store(seq + 1, std::memory_order_relaxed);
  victim->referenced.store(0, std::memory_order_relaxed);
  victim->key_lo.store(k.lo, std::memory_order_release);
  victim->key_hi.store(k.hi, std::memory_order_release);
  victim->epoch.store(epoch_seen, std::memory_order_release);
  victim->best.store(result.best, std::memory_order_release);
  victim->action.store(pack_action(result.action), std::memory_order_release);
  victim->seq.store(seq + 2, std::memory_order_release);
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
