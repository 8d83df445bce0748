// Unit tests for the MPSC request queue under the KV service
// (src/common/mpsc_queue.h): batch boundary semantics, greedy vs
// straggler-gap flushing, shutdown draining, and capacity back-pressure.
#include "common/mpsc_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace ccnvm {
namespace {

TEST(MpscQueueTest, GreedyPopTakesWhatIsQueuedUpToMaxItems) {
  MpscQueue<int> q(16);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));

  std::vector<int> batch;
  // Greedy mode (null deadline): take everything available, no waiting.
  EXPECT_EQ(q.pop_batch(batch, 3, {}), 3u);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2}));

  batch.clear();
  EXPECT_EQ(q.pop_batch(batch, 8, {}), 2u);
  EXPECT_EQ(batch, (std::vector<int>{3, 4}));
  EXPECT_EQ(q.depth(), 0u);
}

TEST(MpscQueueTest, PopBlocksForFirstItem) {
  MpscQueue<int> q(4);
  std::vector<int> batch;
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(q.push(42));
  });
  // Blocks until the producer delivers, then returns the singleton batch.
  EXPECT_EQ(q.pop_batch(batch, 8, {}), 1u);
  EXPECT_EQ(batch, (std::vector<int>{42}));
  producer.join();
}

TEST(MpscQueueTest, StragglerGapHoldsBatchOpenForLateArrivals) {
  MpscQueue<int> q(16);
  ASSERT_TRUE(q.push(1));
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(q.push(2));
  });
  // A generous sliding gap: the second push lands well inside it, so one
  // pop_batch call must absorb both items.
  const std::chrono::microseconds gap = std::chrono::milliseconds(250);
  std::vector<int> batch;
  EXPECT_EQ(q.pop_batch(batch, 8, gap), 2u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  producer.join();
}

TEST(MpscQueueTest, StragglerGapFlushesAfterOneQuietGap) {
  MpscQueue<int> q(16);
  ASSERT_TRUE(q.push(7));
  // A tiny gap with no further arrivals: the batch must close on its own
  // (bounded wait), not hang until max_items fills.
  const std::chrono::microseconds gap = std::chrono::microseconds(200);
  std::vector<int> batch;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(q.pop_batch(batch, 1024, gap), 1u);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  EXPECT_EQ(batch, (std::vector<int>{7}));
}

TEST(MpscQueueTest, MaxItemsIsAHardCap) {
  MpscQueue<int> q(64);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.push(i));
  const std::chrono::microseconds gap = std::chrono::seconds(10);
  std::vector<int> batch;
  // Even with an enormous gap, the cap closes the batch immediately.
  EXPECT_EQ(q.pop_batch(batch, 4, gap), 4u);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
}

TEST(MpscQueueTest, CloseDrainsResidualItemsThenReturnsZero) {
  MpscQueue<int> q(16);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // rejected after close

  std::vector<int> batch;
  // Residual items still drain after close...
  EXPECT_EQ(q.pop_batch(batch, 8, {}), 2u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  // ...and only then does pop report exhaustion.
  batch.clear();
  EXPECT_EQ(q.pop_batch(batch, 8, {}), 0u);
  EXPECT_TRUE(q.closed());
}

TEST(MpscQueueTest, CloseWakesABlockedConsumer) {
  MpscQueue<int> q(4);
  std::thread closer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
  });
  std::vector<int> batch;
  EXPECT_EQ(q.pop_batch(batch, 8, {}), 0u);
  closer.join();
}

TEST(MpscQueueTest, CapacityBlocksProducerUntilConsumerDrains) {
  MpscQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(3));  // blocks: queue is full
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());

  std::vector<int> batch;
  EXPECT_EQ(q.pop_batch(batch, 8, {}), 2u);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  batch.clear();
  EXPECT_EQ(q.pop_batch(batch, 8, {}), 1u);
  EXPECT_EQ(batch, (std::vector<int>{3}));
}

TEST(MpscQueueTest, StatsTrackDepthHighWaterAndPushed) {
  MpscQueue<int> q(8);
  EXPECT_EQ(q.high_water(), 0u);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push(i));
  EXPECT_EQ(q.depth(), 5u);
  EXPECT_EQ(q.high_water(), 5u);
  EXPECT_EQ(q.pushed(), 5u);
  std::vector<int> batch;
  EXPECT_EQ(q.pop_batch(batch, 8, {}), 5u);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.high_water(), 5u);  // high water sticks
  EXPECT_EQ(q.pushed(), 5u);
}

TEST(MpscQueueTest, ManyProducersNothingLostOrDuplicated) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 200;
  MpscQueue<int> q(16);  // small: exercises back-pressure
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> all;
  std::vector<int> batch;
  while (all.size() < kProducers * kPerProducer) {
    batch.clear();
    const std::size_t n = q.pop_batch(batch, 32, {});
    ASSERT_GT(n, 0u);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  for (std::thread& p : producers) p.join();
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  std::vector<bool> seen(all.size(), false);
  for (const int v : all) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, kProducers * kPerProducer);
    ASSERT_FALSE(seen[static_cast<std::size_t>(v)]) << "duplicate " << v;
    seen[static_cast<std::size_t>(v)] = true;
  }
  // Per-producer FIFO: items from one producer arrive in push order.
  std::vector<int> last(kProducers, -1);
  for (const int v : all) {
    const auto p = static_cast<std::size_t>(v / kPerProducer);
    ASSERT_GT(v % kPerProducer, last[p]);
    last[p] = v % kPerProducer;
  }
}

}  // namespace
}  // namespace ccnvm
