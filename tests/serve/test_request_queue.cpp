#include "serve/request_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

namespace lcaknap::serve {
namespace {

using namespace std::chrono_literals;

Request make_request(std::size_t item) {
  Request r;
  r.item = item;
  r.enqueued_at = Clock::now();
  return r;
}

TEST(RequestQueue, RejectsZeroCapacity) {
  EXPECT_THROW(RequestQueue(0), std::invalid_argument);
}

TEST(RequestQueue, BoundedAdmission) {
  RequestQueue queue(2);
  EXPECT_TRUE(queue.try_push(make_request(0)));
  EXPECT_TRUE(queue.try_push(make_request(1)));
  // Full: admission control refuses, the caller keeps the request.
  Outcome seen = Outcome::kOk;
  Request overflow = make_request(2);
  overflow.callback = [&seen](const Response& r) { seen = r.outcome; };
  EXPECT_FALSE(queue.try_push(std::move(overflow)));
  EXPECT_EQ(queue.depth(), 2u);
  // The rejected request is untouched and still completable.
  ASSERT_TRUE(overflow.callback);
  overflow.callback(Response{Outcome::kOverloaded, false, false});
  EXPECT_EQ(seen, Outcome::kOverloaded);
}

TEST(RequestQueue, PopsInFifoOrder) {
  RequestQueue queue(8);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.try_push(make_request(i)));
  }
  for (std::size_t i = 0; i < 5; ++i) {
    Request out;
    ASSERT_TRUE(queue.pop_for(out, 1ms));
    EXPECT_EQ(out.item, i);
  }
  Request out;
  EXPECT_FALSE(queue.pop_for(out, 1ms));  // empty: times out
}

TEST(RequestQueue, PopAllDrainsTheBacklogInOrder) {
  RequestQueue queue(8);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.try_push(make_request(i)));
  }
  std::deque<Request> backlog;
  backlog.push_back(make_request(99));  // pop_all appends after existing work
  EXPECT_EQ(queue.pop_all(backlog), 5u);
  EXPECT_EQ(queue.depth(), 0u);
  ASSERT_EQ(backlog.size(), 6u);
  EXPECT_EQ(backlog[0].item, 99u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(backlog[i + 1].item, i);
  // Draining an empty queue moves nothing and frees capacity for new pushes.
  EXPECT_EQ(queue.pop_all(backlog), 0u);
  EXPECT_TRUE(queue.try_push(make_request(6)));
}

TEST(RequestQueue, CloseRejectsPushesButDrains) {
  RequestQueue queue(8);
  ASSERT_TRUE(queue.try_push(make_request(7)));
  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.try_push(make_request(8)));
  // Admitted work is still poppable after close — nothing admitted is lost.
  Request out;
  ASSERT_TRUE(queue.pop_for(out, 1ms));
  EXPECT_EQ(out.item, 7u);
  EXPECT_FALSE(queue.pop_for(out, 1ms));  // closed and empty: immediate false
}

TEST(RequestQueue, CloseWakesBlockedConsumers) {
  RequestQueue queue(4);
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    Request out;
    // Long wait; close() must cut it short.
    (void)queue.pop_for(out, std::chrono::microseconds(5'000'000));
    woke.store(true);
  });
  std::this_thread::sleep_for(10ms);
  queue.close();
  consumer.join();
  EXPECT_TRUE(woke.load());
}

TEST(RequestQueue, ConcurrentProducersConserveRequests) {
  RequestQueue queue(1'000'000);  // large enough that nothing is rejected
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&queue, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(queue.try_push(make_request(static_cast<std::size_t>(t))));
      }
    });
  }
  std::atomic<int> popped{0};
  std::vector<std::thread> consumers;
  for (int t = 0; t < 2; ++t) {
    consumers.emplace_back([&] {
      Request out;
      // Drain until the queue is closed and empty: a pause between two
      // pushes longer than the 1 ms wait is not the end of the stream.
      while (true) {
        if (queue.pop_for(out, 1ms)) {
          popped.fetch_add(1);
        } else if (queue.closed() && queue.depth() == 0) {
          break;
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  queue.close();
  for (auto& c : consumers) c.join();
  EXPECT_EQ(popped.load(), kThreads * kPerThread);
  EXPECT_EQ(queue.depth(), 0u);
}

}  // namespace
}  // namespace lcaknap::serve
