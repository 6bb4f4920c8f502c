#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace lcaknap::util {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait_idle();
  }
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, ReportsThreadCount) {
  const ThreadPool pool(5);
  EXPECT_EQ(pool.thread_count(), 5u);
}

TEST(ThreadPool, WaitIdleRethrowsTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The exception is consumed: the pool is clean again.
  pool.wait_idle();
  SUCCEED();
}

TEST(ThreadPool, RethrowFirstKeepsRunningRemainingTasks) {
  // One worker, so capture order is submission order: wait_idle promises
  // the first *captured* exception, and with more workers the "second"
  // throw can be captured while the "first" is still unwinding.
  ThreadPool pool(1);
  std::atomic<int> completed{0};
  pool.submit([] { throw std::logic_error("first"); });
  for (int i = 0; i < 50; ++i) {
    pool.submit([&completed] { completed.fetch_add(1); });
  }
  pool.submit([] { throw std::runtime_error("second"); });
  // First captured exception wins; later ones from this generation drop.
  EXPECT_THROW(
      {
        try {
          pool.wait_idle();
        } catch (const std::logic_error& e) {
          EXPECT_STREQ(e.what(), "first");
          throw;
        }
      },
      std::logic_error);
  EXPECT_EQ(completed.load(), 50);
}

TEST(ThreadPool, ParallelForPropagatesWorkerFailure) {
  ThreadPool pool(3);
  std::atomic<int> visited{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&visited](std::size_t i) {
                          visited.fetch_add(1);
                          if (i == 13) throw std::runtime_error("index 13");
                        }),
      std::runtime_error);
  // Every index was still attempted (rethrow happens at the wait).
  EXPECT_EQ(visited.load(), 64);
  // The pool is reusable after a failed parallel_for.
  pool.parallel_for(8, [&visited](std::size_t) { visited.fetch_add(1); });
  EXPECT_EQ(visited.load(), 72);
}

TEST(ThreadPool, DestructionWithPendingExceptionIsSafe) {
  // A pool destroyed without wait_idle() swallows the pending exception
  // (destructors cannot throw); this must not crash or leak the task queue.
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("never observed"); });
    pool.submit([&completed] { completed.fetch_add(1); });
  }
  EXPECT_EQ(completed.load(), 1);
}

TEST(ThreadPool, TasksRunConcurrently) {
  // Handshake: two tasks that each wait for the other's arrival.  Completing
  // within the deadline is only possible if they overlap in time.
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  std::atomic<bool> both_seen{false};
  for (int t = 0; t < 2; ++t) {
    pool.submit([&arrived, &both_seen] {
      arrived.fetch_add(1);
      for (int spin = 0; spin < 200'000'000; ++spin) {
        if (arrived.load() == 2) {
          both_seen.store(true);
          break;
        }
      }
    });
  }
  pool.wait_idle();
  EXPECT_TRUE(both_seen.load());
}

}  // namespace
}  // namespace lcaknap::util
