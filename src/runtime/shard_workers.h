// Run-to-completion shard workers: the fastclick/DPDK execution model
// for the sharded runtime's batch fan-out.
//
// The previous fan-out paid a generic thread-pool round trip per batch
// — mutex-guarded task queue, one heap-allocated closure per shard,
// wake, join — which on small machines cost more than the
// classification itself and made throughput FALL as shards were added
// (the BENCH_runtime.json inversion). This replaces it with long-lived
// worker threads, one per extra lane of the fan-out, that each own a
// bounded lock-free SPSC ring (util/spsc_ring.h) of plain-data work
// descriptors:
//
//   dispatcher --SPSC ring--> worker 0   (runs tasks to completion)
//              --SPSC ring--> worker 1
//              ...
//
// * Descriptors are POD (function pointer + context + index): no
//   futures, no std::function, no allocation on the hot path.
// * A stack-owned Completion counts outstanding descriptors; once it
//   hits zero every worker has written its share of the results and
//   the dispatcher returns.
// * One wait mechanism on both sides: spin kSpinRounds cpu_relax()
//   rounds (covers the next batch arriving back-to-back), then block —
//   an idle worker on its lane's condvar until the next doorbell, the
//   dispatcher on a shared completion condvar. Neither side re-checks
//   on a timer, so an idle pool costs no CPU.
//
// SPSC discipline: each ring has exactly one consumer (its worker).
// The producer side is serialized by a per-worker dispatch mutex so
// several threads may call dispatch() concurrently (the classifier's
// public contract); with a single dispatcher — the rfipcd reactor, the
// benches — that mutex is uncontended and stays in L1.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/spsc_ring.h"

namespace rfipc::runtime {

class ShardWorkerPool {
 public:
  /// Descriptor slots per worker ring. A batch hands each worker one
  /// descriptor (its slice) at most, so a full ring means the worker is
  /// a whole ring of batches behind.
  static constexpr std::size_t kRingCapacity = 64;

  struct Options {
    std::size_t workers = 0;
  };

  /// A batch descriptor: run fn(ctx, index) on the worker thread.
  using TaskFn = void (*)(void* ctx, std::size_t index);

  /// Stack-owned per-batch completion tracker. One dispatcher arms it
  /// via dispatch(), then blocks in wait(); it must outlive the wait.
  class Completion {
   public:
    bool done() const { return remaining_.load(std::memory_order_acquire) == 0; }

   private:
    friend class ShardWorkerPool;
    std::atomic<std::size_t> remaining_{0};
  };

  /// Per-worker observability counters (StatsSnapshot::workers).
  struct WorkerCounters {
    std::uint64_t tasks = 0;        // descriptors run to completion
    std::uint64_t ring_stalls = 0;  // dispatch retries against a full ring
    std::uint64_t parks = 0;        // times the worker went to sleep
    std::size_t ring_depth = 0;     // descriptors queued right now
  };

  explicit ShardWorkerPool(Options opts);
  /// Waits for in-flight descriptors (every armed Completion must have
  /// been wait()ed first), then joins the workers.
  ~ShardWorkerPool();

  ShardWorkerPool(const ShardWorkerPool&) = delete;
  ShardWorkerPool& operator=(const ShardWorkerPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Hands fn(ctx, index) to worker w and arms `done`. Spins (counting
  /// a ring stall) when w's ring is momentarily full — the ring bounds
  /// memory, not admission; backpressure belongs to the caller's batch
  /// sizing. `ctx` must stay valid until wait(done) returns.
  void dispatch(std::size_t w, TaskFn fn, void* ctx, std::size_t index,
                Completion& done);

  /// Spins, then blocks, until every descriptor armed on `done` has
  /// run. Runs no shard work itself: the dispatcher's own share of the
  /// batch should be executed between dispatch() and wait().
  void wait(Completion& done);

  std::vector<WorkerCounters> counters() const;

 private:
  struct Task {
    TaskFn fn = nullptr;
    void* ctx = nullptr;
    std::size_t index = 0;
    Completion* done = nullptr;
  };

  /// One worker's channel. Ring indices are the SPSC synchronization;
  /// the mutex/condvar pair only implements parking.
  struct Lane {
    util::SpscRing<Task> ring{kRingCapacity};
    std::mutex dispatch_mu;  // serializes concurrent producers
    std::mutex park_mu;
    std::condition_variable park_cv;
    bool parked = false;  // guarded by park_mu
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> ring_stalls{0};
    std::atomic<std::uint64_t> parks{0};
  };

  void worker_loop(Lane& lane);
  void complete(Completion& done);

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<bool> stop_{false};
  /// Completion doorbell shared by all dispatchers.
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;  // last: threads see members above
};

}  // namespace rfipc::runtime
