// Run-to-completion shard workers: the fastclick/DPDK execution model
// for the sharded runtime's batch fan-out.
//
// A batch is split into lanes. The caller is lane 0; each further lane
// l is offered to long-lived worker l-1 through that worker's one-slot
// mailbox, which holds a pointer to the caller's batch record {fn, ctx,
// lanes offered and not yet finished}:
//
//   caller --offer lane 1--> worker 0's mailbox
//          --offer lane 2--> worker 1's mailbox
//          ...
//          runs lane 0, then takes back every offer no worker has taken
//
// * Offer: a release compare-exchange from empty. A mailbox that still
//   holds another caller's offer means that worker is behind, so the
//   caller runs the lane itself at once.
// * Take back: once lane 0 is done the caller compare-exchanges each of
//   its offers from its own record back to empty and runs every lane
//   that comes back, so a worker that wakes late costs the batch
//   nothing. It waits only for the lanes workers took (by an acquire
//   exchange). Comparing against its own record, a caller can never
//   take another caller's offer.
// * The record lives on the caller's stack: a worker dereferences it
//   only after taking it out of its mailbox, run() returns only once
//   every taken lane has finished, and after the decrement that can let
//   the caller return a worker touches only pool members.
// * One wait mechanism on both sides: spin kSpinRounds cpu_relax()
//   rounds (covers the next batch arriving back-to-back), then block —
//   an idle worker on its condvar until the next doorbell, a caller on
//   a shared completion condvar. Neither side re-checks on a timer, so
//   an idle pool costs no CPU.
//
// Any number of threads may call run() at once (the classifier's public
// contract), and no call allocates.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rfipc::runtime {

class ShardWorkerPool {
 public:
  /// One lane of a batch: fn(ctx, lane), on a worker or on the caller.
  using TaskFn = void (*)(void* ctx, std::size_t lane);

  /// Per-worker observability counters (StatsSnapshot::workers).
  struct WorkerCounters {
    std::uint64_t tasks = 0;  // lanes run to completion
    std::uint64_t parks = 0;  // times the worker went to sleep
  };

  explicit ShardWorkerPool(std::size_t workers);
  /// Joins the workers; every run() must have returned.
  ~ShardWorkerPool();

  ShardWorkerPool(const ShardWorkerPool&) = delete;
  ShardWorkerPool& operator=(const ShardWorkerPool&) = delete;

  std::size_t worker_count() const { return threads_.size(); }

  /// Runs fn(ctx, l) exactly once for every lane l < lanes, where
  /// 1 <= lanes <= worker_count() + 1, and returns once all have run.
  /// Lane 0 and every lane no worker takes in time run on the caller.
  void run(TaskFn fn, void* ctx, std::size_t lanes);

  std::vector<WorkerCounters> counters() const;

 private:
  /// One run() call's record, on the caller's stack.
  struct Batch {
    TaskFn fn;
    void* ctx;
    /// Lanes neither finished by a worker nor run by the caller.
    std::atomic<std::size_t> pending;
  };

  struct Worker {
    std::atomic<Batch*> mailbox{nullptr};  // one offer at most
    std::mutex park_mu;
    std::condition_variable park_cv;
    bool parked = false;  // guarded by park_mu
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> parks{0};
  };

  void worker_loop(Worker& w, std::size_t lane);
  void finish(Batch& batch);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
  /// Completion doorbell shared by all callers.
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;  // last: threads see members above
};

}  // namespace rfipc::runtime
