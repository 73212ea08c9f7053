#include "runtime/shard_workers.h"

namespace rfipc::runtime {
namespace {

/// Spins this many cpu_relax() rounds before an idle worker parks or a
/// waiting caller blocks: long enough to cover the next batch arriving
/// back-to-back, short enough not to burn a shared core.
constexpr std::uint32_t kSpinRounds = 2048;

/// Spin-wait hint: de-prioritizes the hyperthread and saves power
/// without giving up the core.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

}  // namespace

ShardWorkerPool::ShardWorkerPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(*workers_[w], w + 1); });
  }
}

ShardWorkerPool::~ShardWorkerPool() {
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->park_mu);
    w->park_cv.notify_all();
  }
  for (auto& t : threads_) t.join();
}

void ShardWorkerPool::run(TaskFn fn, void* ctx, std::size_t lanes) {
  Batch batch{fn, ctx, lanes - 1};
  std::size_t ran_here = 0;  // lanes >= 1 run by this caller
  for (std::size_t l = 1; l < lanes; ++l) {
    Worker& w = *workers_[l - 1];
    Batch* empty = nullptr;
    if (!w.mailbox.compare_exchange_strong(empty, &batch, std::memory_order_release,
                                           std::memory_order_relaxed)) {
      // Another caller's offer is still waiting: this worker is behind.
      fn(ctx, l);
      ++ran_here;
      continue;
    }
    // Doorbell. Taking park_mu makes the hand-off race-free by mutex
    // ordering alone (no fences — GCC's TSan can't model them): either
    // this critical section runs BEFORE the worker's park sequence, in
    // which case the worker's under-lock mailbox check happens-after
    // our unlock and sees the offer, or the worker already parked and
    // its parked=true store is visible under the lock, so we notify.
    std::lock_guard<std::mutex> lock(w.park_mu);
    if (w.parked) w.park_cv.notify_one();
  }
  fn(ctx, 0);
  // Take back every offer no worker has taken yet. The compare-exchange
  // only matches this call's record, so it never takes another caller's
  // offer; a failure means a worker took ours (or it was never placed,
  // and the lane already ran above).
  for (std::size_t l = 1; l < lanes; ++l) {
    Batch* mine = &batch;
    if (workers_[l - 1]->mailbox.compare_exchange_strong(mine, nullptr,
                                                         std::memory_order_relaxed)) {
      fn(ctx, l);
      ++ran_here;
    }
  }
  // Until this subtraction pending >= ran_here, so no worker's finish()
  // can see it reach zero early.
  if (batch.pending.fetch_sub(ran_here, std::memory_order_acq_rel) == ran_here) return;
  for (std::uint32_t spin = 0; spin < kSpinRounds; ++spin) {
    if (batch.pending.load(std::memory_order_acquire) == 0) return;
    cpu_relax();
  }
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [&batch] { return batch.pending.load(std::memory_order_acquire) == 0; });
}

void ShardWorkerPool::finish(Batch& batch) {
  // Once pending hits zero the caller may return and its record die:
  // after this decrement, touch only pool members.
  if (batch.pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Same mutex-ordering argument as the worker doorbell: a caller that
  // checked pending before our decrement is already waiting on
  // done_cv_ once we get done_mu_, so the notify reaches it.
  { std::lock_guard<std::mutex> lock(done_mu_); }
  done_cv_.notify_all();
}

void ShardWorkerPool::worker_loop(Worker& w, std::size_t lane) {
  std::uint32_t idle = 0;
  while (true) {
    // Load first: spinning on an exchange would steal the line from
    // the callers' compare-exchanges.
    if (w.mailbox.load(std::memory_order_relaxed) != nullptr) {
      if (Batch* batch = w.mailbox.exchange(nullptr, std::memory_order_acquire)) {
        idle = 0;
        batch->fn(batch->ctx, lane);
        w.tasks.fetch_add(1, std::memory_order_relaxed);
        finish(*batch);
        continue;
      }
    }
    if (stop_.load(std::memory_order_acquire)) return;
    if (++idle < kSpinRounds) {
      cpu_relax();
      continue;
    }
    // Park: set the flag and check the mailbox UNDER park_mu, which
    // pairs with the doorbell's critical section in run() — a racing
    // offer either landed first (the check sees it) or rings after (it
    // sees parked=true and notifies).
    std::unique_lock<std::mutex> lock(w.park_mu);
    w.parked = true;
    auto wake = [&] {
      return w.mailbox.load(std::memory_order_relaxed) != nullptr ||
             stop_.load(std::memory_order_acquire);
    };
    if (!wake()) {
      w.parks.fetch_add(1, std::memory_order_relaxed);
      w.park_cv.wait(lock, wake);
    }
    w.parked = false;
    idle = 0;
  }
}

std::vector<ShardWorkerPool::WorkerCounters> ShardWorkerPool::counters() const {
  std::vector<WorkerCounters> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) {
    out.push_back({.tasks = w->tasks.load(std::memory_order_relaxed),
                   .parks = w->parks.load(std::memory_order_relaxed)});
  }
  return out;
}

}  // namespace rfipc::runtime
