#include "runtime/shard_workers.h"

namespace rfipc::runtime {
namespace {

/// Spins this many cpu_relax() rounds before an idle worker parks or a
/// waiting dispatcher blocks: long enough to cover the next batch
/// arriving back-to-back, short enough not to burn a shared core.
constexpr std::uint32_t kSpinRounds = 2048;

}  // namespace

ShardWorkerPool::ShardWorkerPool(Options opts) {
  lanes_.reserve(opts.workers);
  for (std::size_t w = 0; w < opts.workers; ++w) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  workers_.reserve(opts.workers);
  for (auto& lane : lanes_) {
    workers_.emplace_back([this, l = lane.get()] { worker_loop(*l); });
  }
}

ShardWorkerPool::~ShardWorkerPool() {
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->park_mu);
    lane->park_cv.notify_all();
  }
  for (auto& t : workers_) t.join();
}

void ShardWorkerPool::dispatch(std::size_t w, TaskFn fn, void* ctx,
                               std::size_t index, Completion& done) {
  Lane& lane = *lanes_[w];
  done.remaining_.fetch_add(1, std::memory_order_relaxed);
  Task task{fn, ctx, index, &done};
  {
    std::lock_guard<std::mutex> lock(lane.dispatch_mu);
    std::uint32_t spins = 0;
    while (!lane.ring.try_push(task)) {
      // Full ring: the worker is behind by a whole ring of batches.
      // Bounded memory matters more than this dispatcher's latency —
      // spin until a slot frees (counted once, so stalls are visible).
      // Past the spin budget, yield: if the worker shares this core
      // (more lanes than cores), relaxing alone would burn the whole
      // timeslice the worker needs to drain a slot.
      if (spins++ == 0) lane.ring_stalls.fetch_add(1, std::memory_order_relaxed);
      if (spins < kSpinRounds) {
        util::cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }
  // Doorbell. Taking park_mu makes the hand-off race-free by mutex
  // ordering alone (no fences — GCC's TSan can't model them): either
  // this critical section runs BEFORE the worker's park sequence, in
  // which case the worker's under-lock ring check happens-after our
  // unlock and sees the pushed task, or the worker already parked and
  // its parked=true store is visible under the lock, so we notify.
  std::lock_guard<std::mutex> lock(lane.park_mu);
  if (lane.parked) lane.park_cv.notify_one();
}

void ShardWorkerPool::complete(Completion& done) {
  // Once remaining_ hits zero the dispatcher may return from wait()
  // and destroy `done`: after this decrement, touch only pool members.
  if (done.remaining_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Same mutex-ordering argument as the worker doorbell: a dispatcher
  // that checked done() before our decrement is already waiting on
  // done_cv_ once we get done_mu_, so the notify reaches it.
  { std::lock_guard<std::mutex> lock(done_mu_); }
  done_cv_.notify_all();
}

void ShardWorkerPool::wait(Completion& done) {
  for (std::uint32_t spin = 0; spin < kSpinRounds; ++spin) {
    if (done.done()) return;
    util::cpu_relax();
  }
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [&done] { return done.done(); });
}

void ShardWorkerPool::worker_loop(Lane& lane) {
  std::uint32_t idle = 0;
  while (true) {
    Task task;
    if (lane.ring.try_pop(task)) {
      idle = 0;
      task.fn(task.ctx, task.index);
      lane.tasks.fetch_add(1, std::memory_order_relaxed);
      complete(*task.done);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    if (++idle < kSpinRounds) {
      util::cpu_relax();
      continue;
    }
    // Park: set the flag and check the ring UNDER park_mu, which pairs
    // with the doorbell's critical section in dispatch() — a racing
    // dispatch either ran first (its push is visible to the check) or
    // runs after (it sees parked=true and notifies).
    std::unique_lock<std::mutex> lock(lane.park_mu);
    lane.parked = true;
    auto wake = [&] {
      return !lane.ring.empty() || stop_.load(std::memory_order_acquire);
    };
    if (!wake()) {
      lane.parks.fetch_add(1, std::memory_order_relaxed);
      lane.park_cv.wait(lock, wake);
    }
    lane.parked = false;
    idle = 0;
  }
}

std::vector<ShardWorkerPool::WorkerCounters> ShardWorkerPool::counters() const {
  std::vector<WorkerCounters> out;
  out.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    WorkerCounters c;
    c.tasks = lane->tasks.load(std::memory_order_relaxed);
    c.ring_stalls = lane->ring_stalls.load(std::memory_order_relaxed);
    c.parks = lane->parks.load(std::memory_order_relaxed);
    c.ring_depth = lane->ring.size();
    out.push_back(c);
  }
  return out;
}

}  // namespace rfipc::runtime
