// The run-to-completion shard workers' run() contract: every lane of
// every call runs exactly once, a caller takes back the lanes no worker
// has started, and it never takes another caller's offer. The
// multi-threaded tests are the real payload under TSan
// (scripts/check.sh runs this binary in the TSan leg): the mailbox
// compare-exchanges and the batch record's pending count are the only
// synchronization, so any missing edge shows up as a data race on a
// lane's results.
#include "runtime/shard_workers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

namespace rfipc {
namespace {

using Clock = std::chrono::steady_clock;

void bump(void* ctx, std::size_t lane) {
  auto* hits = static_cast<std::atomic<std::uint64_t>*>(ctx);
  hits[lane].fetch_add(1, std::memory_order_relaxed);
}

/// Waits until `done` is set or `limit` passes; returns whether it was
/// set. Polls, so a pool that never finishes fails the caller's
/// assertion instead of hanging the test.
bool wait_until(const std::atomic<bool>& done, Clock::duration limit) {
  const auto deadline = Clock::now() + limit;
  while (!done.load(std::memory_order_acquire)) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ShardWorkerPool, RunsEveryDescriptorExactlyOnce) {
  runtime::ShardWorkerPool pool(3);
  ASSERT_EQ(pool.worker_count(), 3u);

  constexpr int kCalls = 1024;
  for (std::size_t lanes = 1; lanes <= pool.worker_count() + 1; ++lanes) {
    for (int call = 0; call < kCalls; ++call) {
      std::array<std::atomic<std::uint64_t>, 4> hits{};
      pool.run(&bump, hits.data(), lanes);
      for (std::size_t l = 0; l < hits.size(); ++l) {
        ASSERT_EQ(hits[l].load(), l < lanes ? 1u : 0u) << "lane " << l << " of " << lanes;
      }
    }
  }
  // Workers ran only lanes >= 1, each at most once per call.
  const auto counters = pool.counters();
  ASSERT_EQ(counters.size(), 3u);
  std::uint64_t total = 0;
  for (const auto& c : counters) total += c.tasks;
  EXPECT_LE(total, std::uint64_t{kCalls} * (1 + 2 + 3));
}

TEST(ShardWorkerPool, ZeroWorkersIsInlineOnlyPool) {
  // The 1-lane (serial) configuration: no threads, lane 0 runs on the
  // caller and nothing is left to wait on.
  runtime::ShardWorkerPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  struct Rig {
    std::thread::id ran_on;
    int runs = 0;
  } rig;
  pool.run(
      +[](void* ctx, std::size_t lane) {
        auto* r = static_cast<Rig*>(ctx);
        EXPECT_EQ(lane, 0u);
        r->ran_on = std::this_thread::get_id();
        ++r->runs;
      },
      &rig, 1);
  EXPECT_EQ(rig.runs, 1);
  EXPECT_EQ(rig.ran_on, std::this_thread::get_id());
  EXPECT_TRUE(pool.counters().empty());
}

TEST(ShardWorkerPool, ManyBatchesBackToBackReuseParkedWorkers) {
  // Parking/doorbell regression: back-to-back small batches let workers
  // park between them; each new batch must still finish (no lost
  // doorbell, no lane lost between an offer and its take-back).
  runtime::ShardWorkerPool pool(2);
  std::atomic<std::uint64_t> n{0};
  auto fn = +[](void* ctx, std::size_t) {
    static_cast<std::atomic<std::uint64_t>*>(ctx)->fetch_add(1);
  };
  for (int round = 0; round < 500; ++round) pool.run(fn, &n, 3);
  EXPECT_EQ(n.load(), 1500u);
}

TEST(ShardWorkerPool, IdleWorkersStayParked) {
  // A worker parks once after its spin budget and sleeps until the next
  // doorbell: no timed wake-ups, so an idle pool burns no CPU and its
  // parks counters stay flat for as long as nothing is offered.
  runtime::ShardWorkerPool pool(3);
  std::vector<std::atomic<std::uint64_t>> hits(4);
  pool.run(&bump, hits.data(), 4);

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

/// Caller A's 2-lane batch: lane 0 returns only once the worker has
/// started lane 1 (so A cannot take it back), and lane 1 then holds the
/// worker until `release`.
struct HeldBatch {
  std::atomic<bool> worker_started{false};
  std::atomic<bool> release{false};
};

void hold_worker(void* ctx, std::size_t lane) {
  auto* h = static_cast<HeldBatch*>(ctx);
  if (lane == 1) {
    h->worker_started.store(true, std::memory_order_release);
    while (!h->release.load(std::memory_order_acquire)) std::this_thread::yield();
  } else {
    while (!h->worker_started.load(std::memory_order_acquire)) std::this_thread::yield();
  }
}

TEST(ShardWorkerPool, BusyWorkerDoesNotDelayAnotherCaller) {
  // The only worker is stuck in caller A's lane 1. Caller B's offer to
  // it sits untaken, so B must take it back and run both of its lanes
  // itself instead of queueing behind A. A pool that waits for every
  // offer misses the deadline (then A is released and both finish).
  runtime::ShardWorkerPool pool(1);
  HeldBatch held;
  std::thread a([&] { pool.run(&hold_worker, &held, 2); });
  while (!held.worker_started.load(std::memory_order_acquire)) std::this_thread::yield();

  std::array<std::atomic<std::uint64_t>, 2> hits{};
  std::atomic<bool> b_done{false};
  std::thread b([&] {
    pool.run(&bump, hits.data(), 2);
    b_done.store(true, std::memory_order_release);
  });
  const bool b_in_time = wait_until(b_done, std::chrono::seconds(5));
  held.release.store(true, std::memory_order_release);
  a.join();
  b.join();

  EXPECT_TRUE(b_in_time) << "caller B waited for the busy worker";
  EXPECT_EQ(hits[0].load(), 1u);
  EXPECT_EQ(hits[1].load(), 1u);
  EXPECT_EQ(pool.counters()[0].tasks, 1u) << "only A's lane 1 ran on the worker";
}

/// One call's lane tally; ctx of a concurrent caller's run().
struct CallTally {
  std::array<std::atomic<std::uint32_t>, 4> hits{};
};

void tally(void* ctx, std::size_t lane) {
  static_cast<CallTally*>(ctx)->hits[lane].fetch_add(1, std::memory_order_relaxed);
}

TEST(ShardWorkerPool, ConcurrentCallersEachRunEveryLaneOnce) {
  // More callers than workers, all offering to the same three
  // mailboxes: offers find mailboxes busy with another caller's offer,
  // take-backs race workers' takes, and a take-back must only ever
  // take the caller's own offer. A stolen offer is a lane that never
  // runs — its caller hangs — so the deadline turns that into a failure.
  runtime::ShardWorkerPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kCalls = 500;
  std::atomic<int> finished{0};
  std::atomic<std::uint64_t> bad_calls{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int call = 0; call < kCalls; ++call) {
        const std::size_t lanes = 2 + static_cast<std::size_t>(call + c) % 3;  // 2..4
        CallTally t;
        pool.run(&tally, &t, lanes);
        for (std::size_t l = 0; l < t.hits.size(); ++l) {
          if (t.hits[l].load() != (l < lanes ? 1u : 0u)) bad_calls.fetch_add(1);
        }
      }
      finished.fetch_add(1);
    });
  }
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (finished.load() < kCallers && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (finished.load() < kCallers) {
    // A caller is stuck in run() for good: it cannot be joined, so
    // report and end the process rather than hang the suite.
    ADD_FAILURE() << (kCallers - finished.load()) << " caller(s) never returned from run()";
    std::fflush(nullptr);
    std::_Exit(1);
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(bad_calls.load(), 0u) << "a lane ran zero times or twice";
}

}  // namespace
}  // namespace rfipc
