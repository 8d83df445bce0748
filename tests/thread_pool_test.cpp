// The deterministic parallel job executor: bit-identical results for any
// worker count, index-ordered exception reporting, the inline
// single-worker and nested paths, and the persistent worker pool behind
// them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace ccnvm {
namespace {

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, 4, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroCountIsANoOp) {
  parallel_for(0, 8, [&](std::size_t) { FAIL() << "no index to run"; });
}

TEST(ThreadPoolTest, MapIsBitIdenticalForEveryWorkerCount) {
  // Each slot's value is a pure function of (seed, index); the output
  // vector must not depend on how indices were scheduled.
  constexpr std::size_t kCount = 257;
  const auto job = [](std::size_t i) {
    Rng rng(derive_seed(99, i));
    std::uint64_t acc = 0;
    for (int k = 0; k < 100; ++k) acc += rng.next();
    return acc;
  };
  const std::vector<std::uint64_t> one = parallel_map<std::uint64_t>(
      kCount, 1, job);
  for (std::size_t workers : {2u, 3u, 8u, 0u}) {
    EXPECT_EQ(parallel_map<std::uint64_t>(kCount, workers, job), one)
        << "workers=" << workers;
  }
}

TEST(ThreadPoolTest, LowestIndexExceptionWinsOnThreads) {
  // Multiple jobs throw; the join must surface the lowest index's error
  // no matter which worker hit which index first.
  try {
    parallel_for(64, 8, [&](std::size_t i) {
      if (i % 7 == 3) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
}

TEST(ThreadPoolTest, ThrowingJobDoesNotStopTheOthers) {
  std::vector<std::atomic<int>> hits(50);
  EXPECT_THROW(parallel_for(50, 4,
                            [&](std::size_t i) {
                              ++hits[i];
                              if (i == 0) throw std::runtime_error("early");
                            }),
               std::runtime_error);
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, 50) << "every index still ran";
}

TEST(ThreadPoolTest, SingleWorkerRunsInline) {
  // With one worker the body runs on the calling thread, so thread_local
  // state (like the CCNVM_CHECK throw-mode flag) is visible to the jobs.
  const auto caller = std::this_thread::get_id();
  parallel_for(5, 1, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, WorkerCountIsClampedToCount) {
  // More workers than indices must not deadlock or double-run anything.
  std::vector<std::atomic<int>> hits(3);
  parallel_for(3, 16, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(hits[0].load() + hits[1].load() + hits[2].load(), 3);
}

TEST(ThreadPoolTest, NestedCallsRunInlineWithoutDeadlock) {
  // Every outer job fans out again, from pool workers and from the
  // participating caller alike; the inner calls must run on the thread
  // that made them, so nothing waits on a pool already busy with the
  // outer call.
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 32;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> foreign{0};
  parallel_for(kOuter, 0, [&](std::size_t o) {
    const auto outer_thread = std::this_thread::get_id();
    parallel_for(kInner, 0, [&](std::size_t i) {
      if (std::this_thread::get_id() != outer_thread) ++foreign;
      ++hits[o * kInner + i];
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(foreign.load(), 0) << "a nested call left its thread";
}

TEST(ThreadPoolTest, ConcurrentTopLevelCallersBothFinish) {
  // Two threads share the pool; each drains its own call, so both
  // complete and both see every index run once.
  constexpr std::size_t kCount = 4096;
  constexpr int kRounds = 50;
  std::vector<std::atomic<int>> a(kCount);
  std::vector<std::atomic<int>> b(kCount);
  const auto caller = [](std::vector<std::atomic<int>>& hits) {
    for (int r = 0; r < kRounds; ++r) {
      parallel_for(hits.size(), 0, [&](std::size_t i) { ++hits[i]; });
    }
  };
  std::thread ta(caller, std::ref(a));
  std::thread tb(caller, std::ref(b));
  ta.join();
  tb.join();
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(a[i].load(), kRounds) << "index " << i;
    EXPECT_EQ(b[i].load(), kRounds) << "index " << i;
  }
}

TEST(ThreadPoolTest, BackToBackCallsReuseThePoolsThreads) {
  // 10 K calls must be served by the same parked workers: the set of
  // non-caller threads that ever ran a job never outgrows the pool.
  const auto caller = std::this_thread::get_id();
  std::mutex mu;
  std::set<std::thread::id> helpers;
  for (int call = 0; call < 10000; ++call) {
    parallel_for(8, 0, [&](std::size_t) {
      const auto id = std::this_thread::get_id();
      if (id == caller) return;
      const std::lock_guard<std::mutex> lock(mu);
      helpers.insert(id);
    });
  }
  EXPECT_LE(helpers.size(), parallel_pool_size());
}

TEST(ThreadPoolTest, OneWorkerNeverTouchesThePool) {
  const std::uint64_t before = parallel_pool_dispatches();
  std::atomic<int> hits{0};
  for (int call = 0; call < 100; ++call) {
    parallel_for(64, 1, [&](std::size_t) { ++hits; });
    parallel_for(1, 0, [&](std::size_t) { ++hits; });  // one index
  }
  EXPECT_EQ(hits.load(), 100 * 65);
  EXPECT_EQ(parallel_pool_dispatches(), before);
}

TEST(ThreadPoolTest, LowestIndexExceptionWinsOnThePool) {
  // Enough indices and workers that several throwing jobs land on
  // different threads; the rethrown one is still the lowest index.
  for (int round = 0; round < 20; ++round) {
    try {
      parallel_for(512, 0, [&](std::size_t i) {
        if (i % 61 == 17) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "17");
    }
  }
}

TEST(ThreadPoolTest, DerivedSeedsAreDecorrelated) {
  // The satellite fix this PR rides on: per-job streams must not be the
  // shared-RNG-with-offset pattern. Adjacent jobs' first draws should
  // differ, and a stream must not equal its neighbor shifted by one.
  Rng a(derive_seed(7, 0));
  Rng b(derive_seed(7, 1));
  std::vector<std::uint64_t> sa(8), sb(8);
  for (auto& v : sa) v = a.next();
  for (auto& v : sb) v = b.next();
  EXPECT_NE(sa, sb);
  EXPECT_NE(std::vector<std::uint64_t>(sa.begin() + 1, sa.end()),
            std::vector<std::uint64_t>(sb.begin(), sb.end() - 1))
      << "streams must not be the same sequence offset by one";
}

}  // namespace
}  // namespace ccnvm
