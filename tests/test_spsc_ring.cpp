// The SPSC ring under the run-to-completion shard workers, plus the
// worker pool's dispatch/wait contract. The two-thread tests are the
// real payload under TSan (scripts/check.sh runs this binary in the
// TSan leg): the ring's only synchronization is the acquire/release
// pair on the indices, so any missing edge shows up as a data race on
// the slot payload.
#include "util/spsc_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/shard_workers.h"

namespace rfipc {
namespace {

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(util::SpscRing<int>(0).capacity(), 2u);
  EXPECT_EQ(util::SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(util::SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(util::SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(util::SpscRing<int>(64).capacity(), 64u);
  EXPECT_EQ(util::SpscRing<int>(65).capacity(), 128u);
}

TEST(SpscRing, EmptyPopFails) {
  util::SpscRing<int> ring(4);
  int out = -1;
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(out));
  EXPECT_EQ(out, -1);  // out untouched on failure
}

TEST(SpscRing, FullPushFailsAndValueSurvives) {
  util::SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_FALSE(ring.try_push(99));
  // Draining one slot re-opens exactly one push.
  int out = -1;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.try_push(99));
  EXPECT_FALSE(ring.try_push(100));
}

TEST(SpscRing, FifoAcrossManyWraparounds) {
  // Capacity 4 and 1000 items: the indices wrap the slot array 250
  // times; FIFO order must hold throughout.
  util::SpscRing<int> ring(4);
  int next_out = 0;
  for (int i = 0; i < 1000; ++i) {
    while (!ring.try_push(int{i})) {
      int out = -1;
      ASSERT_TRUE(ring.try_pop(out));
      ASSERT_EQ(out, next_out++);
    }
  }
  int out = -1;
  while (ring.try_pop(out)) ASSERT_EQ(out, next_out++);
  EXPECT_EQ(next_out, 1000);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, MoveOnlyPayload) {
  util::SpscRing<std::unique_ptr<std::string>> ring(2);
  EXPECT_TRUE(ring.try_push(std::make_unique<std::string>("a")));
  EXPECT_TRUE(ring.try_push(std::make_unique<std::string>("b")));
  std::unique_ptr<std::string> out;
  EXPECT_TRUE(ring.try_pop(out));
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, "a");
  EXPECT_TRUE(ring.try_pop(out));
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, "b");
}

TEST(SpscRing, TwoThreadOrderingStress) {
  // One producer, one consumer, a deliberately tiny ring so both the
  // full and the empty boundary are hit constantly. The consumer
  // checks strict FIFO; TSan checks the publication of the payload.
  // (Spin loops yield so the test stays fast on a 1-core runner.)
  constexpr std::uint64_t kItems = 50'000;
  util::SpscRing<std::uint64_t> ring(8);
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!ring.try_push(std::uint64_t{i})) std::this_thread::yield();
    }
  });
  std::uint64_t expect = 0;
  while (expect < kItems) {
    std::uint64_t out = 0;
    if (ring.try_pop(out)) {
      ASSERT_EQ(out, expect);
      ++expect;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, SizeExactWhenQuiescent) {
  util::SpscRing<int> ring(8);
  EXPECT_EQ(ring.size(), 0u);
  for (int i = 0; i < 5; ++i) ring.try_push(int{i});
  EXPECT_EQ(ring.size(), 5u);
  int out;
  ring.try_pop(out);
  EXPECT_EQ(ring.size(), 4u);
}

// ---- ShardWorkerPool on top of the ring ----------------------------

void bump(void* ctx, std::size_t index) {
  auto* hits = static_cast<std::atomic<std::uint64_t>*>(ctx);
  hits[index].fetch_add(1, std::memory_order_relaxed);
}

TEST(ShardWorkerPool, RunsEveryDescriptorExactlyOnce) {
  runtime::ShardWorkerPool::Options opts;
  opts.workers = 3;
  runtime::ShardWorkerPool pool(opts);
  ASSERT_EQ(pool.worker_count(), 3u);

  constexpr std::size_t kTasks = 1024;
  std::vector<std::atomic<std::uint64_t>> hits(kTasks);
  for (int round = 0; round < 4; ++round) {
    runtime::ShardWorkerPool::Completion done;
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.dispatch(i % pool.worker_count(), &bump, hits.data(), i, done);
    }
    pool.wait(done);
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 4u);

  // Counters saw the work; depth is zero with everything drained.
  const auto counters = pool.counters();
  ASSERT_EQ(counters.size(), 3u);
  std::uint64_t total = 0;
  for (const auto& c : counters) {
    total += c.tasks;
    EXPECT_EQ(c.ring_depth, 0u);
  }
  EXPECT_EQ(total, 4u * kTasks);
}

/// Backpressure rig: task 0 holds its worker until the pool reports a
/// ring stall, so the dispatcher is certain to find the ring full.
struct StallRig {
  runtime::ShardWorkerPool* pool = nullptr;
  std::vector<std::atomic<std::uint64_t>> hits;
};

void hold_until_stall(void* ctx, std::size_t index) {
  auto* rig = static_cast<StallRig*>(ctx);
  if (index == 0) {
    while (rig->pool->counters()[0].ring_stalls == 0) std::this_thread::yield();
  }
  rig->hits[index].fetch_add(1, std::memory_order_relaxed);
}

TEST(ShardWorkerPool, RingBackpressureStallsDispatchNotCorrectness) {
  // While task 0 runs, the worker drains nothing, so at most
  // kRingCapacity further descriptors fit: dispatching more than
  // kRingCapacity + 1 reaches the full-ring spin path deterministically.
  // Every descriptor must still run exactly once.
  runtime::ShardWorkerPool pool(runtime::ShardWorkerPool::Options{.workers = 1});
  StallRig rig{&pool, std::vector<std::atomic<std::uint64_t>>(
                          4 * runtime::ShardWorkerPool::kRingCapacity)};
  runtime::ShardWorkerPool::Completion done;
  for (std::size_t i = 0; i < rig.hits.size(); ++i) {
    pool.dispatch(0, &hold_until_stall, &rig, i, done);
  }
  pool.wait(done);
  for (const auto& h : rig.hits) EXPECT_EQ(h.load(), 1u);
  EXPECT_GE(pool.counters()[0].ring_stalls, 1u);
}

TEST(ShardWorkerPool, ZeroWorkersIsInlineOnlyPool) {
  // The 1-lane (serial) configuration: no threads, nothing to wait on.
  runtime::ShardWorkerPool pool(runtime::ShardWorkerPool::Options{});
  EXPECT_EQ(pool.worker_count(), 0u);
  runtime::ShardWorkerPool::Completion done;
  pool.wait(done);  // trivially complete
  EXPECT_TRUE(done.done());
  EXPECT_TRUE(pool.counters().empty());
}

TEST(ShardWorkerPool, ManyBatchesBackToBackReuseParkedWorkers) {
  // Parking/doorbell regression: small batches with gaps between them
  // let workers park; each new batch must wake them (no lost doorbell).
  runtime::ShardWorkerPool::Options opts;
  opts.workers = 2;
  runtime::ShardWorkerPool pool(opts);
  std::atomic<std::uint64_t> n{0};
  auto fn = +[](void* ctx, std::size_t) {
    static_cast<std::atomic<std::uint64_t>*>(ctx)->fetch_add(1);
  };
  for (int round = 0; round < 500; ++round) {
    runtime::ShardWorkerPool::Completion done;
    pool.dispatch(0, fn, &n, 0, done);
    pool.dispatch(1, fn, &n, 1, done);
    pool.wait(done);
  }
  EXPECT_EQ(n.load(), 1000u);
}

TEST(ShardWorkerPool, IdleWorkersStayParked) {
  // A worker parks once after its spin budget and sleeps until the next
  // doorbell: no timed wake-ups, so an idle pool burns no CPU and its
  // parks counters stay flat for as long as nothing is dispatched.
  runtime::ShardWorkerPool pool(runtime::ShardWorkerPool::Options{.workers = 3});
  std::vector<std::atomic<std::uint64_t>> hits(3);
  runtime::ShardWorkerPool::Completion done;
  for (std::size_t w = 0; w < 3; ++w) pool.dispatch(w, &bump, hits.data(), w, done);
  pool.wait(done);

  auto parks = [&pool] {
    std::vector<std::uint64_t> p;
    for (const auto& c : pool.counters()) p.push_back(c.parks);
    return p;
  };
  // Settled: every worker has parked and nothing moved for 50 ms.
  std::vector<std::uint64_t> settled = parks();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::vector<std::uint64_t> now = parks();
    const bool all_parked =
        std::all_of(now.begin(), now.end(), [](std::uint64_t p) { return p > 0; });
    if (all_parked && now == settled) break;
    settled = now;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(parks(), settled) << "idle workers woke without a doorbell";
}

}  // namespace
}  // namespace rfipc
