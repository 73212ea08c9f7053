// Bounded lock-free single-producer/single-consumer ring.
//
// The run-to-completion shard workers (runtime/shard_workers.h) carry
// batched work descriptors from the dispatcher to each worker through
// one of these — the fastclick/DPDK hand-off shape: one cache-line-
// separated head and tail index, a power-of-two slot array, and no
// atomics on the payload itself (the release store of the index
// publishes the slot). Each side additionally keeps a CACHED copy of
// the other side's index so the common case — ring neither full nor
// empty — touches only its own cache line plus the slot.
//
// Contract: exactly one thread calls try_push and exactly one thread
// calls try_pop for the lifetime of the ring. size() is approximate
// while both sides are live; it is exact once either side is quiescent.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

namespace rfipc::util {

/// Spin-wait hint for spin loops: de-prioritizes the hyperthread
/// and saves power without giving up the core.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

template <typename T>
class SpscRing {
 public:
  /// Usable capacity is `capacity` rounded up to a power of two (min 2).
  explicit SpscRing(std::size_t capacity)
      : mask_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity) - 1),
        slots_(mask_ + 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Producer side. False when the ring is full (value is untouched).
  bool try_push(T&& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ > mask_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ > mask_) return false;
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }
  bool try_push(const T& value) {
    T copy(value);
    return try_push(std::move(copy));
  }

  /// Consumer side. False when the ring is empty (out is untouched).
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Approximate while both sides run; exact when either is quiescent.
  std::size_t size() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }
  bool empty() const { return size() == 0; }

 private:
  const std::size_t mask_;
  std::vector<T> slots_;
  /// Consumer-owned line: its index plus its cached view of the tail.
  alignas(64) std::atomic<std::size_t> head_{0};
  std::size_t cached_tail_ = 0;
  /// Producer-owned line: its index plus its cached view of the head.
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::size_t cached_head_ = 0;
};

}  // namespace rfipc::util
