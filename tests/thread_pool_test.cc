#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fdm {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> order;
  pool.ParallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ZeroTasksIsANoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  ThreadPool pool(3);
  std::atomic<int64_t> sum{0};
  for (int batch = 0; batch < 100; ++batch) {
    pool.ParallelFor(17, [&](size_t i) {
      sum.fetch_add(static_cast<int64_t>(i) + 1);
    });
  }
  // 100 batches × Σ 1..17.
  EXPECT_EQ(sum.load(), 100 * 17 * 18 / 2);
}

TEST(ThreadPoolTest, DefaultSizeUsesHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, DisjointWritesNeedNoSynchronization) {
  // The contract the ingestion paths rely on: each index owns a slot.
  ThreadPool pool(4);
  constexpr size_t kN = 512;
  std::vector<int64_t> out(kN, -1);
  pool.ParallelFor(kN, [&](size_t i) { out[i] = static_cast<int64_t>(i * i); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(out[i], static_cast<int64_t>(i * i));
  }
}

TEST(ThreadPoolTest, MaxParallelismOneRunsInlineAndInOrder) {
  ThreadPool pool(4);
  std::vector<int> order;  // unsynchronized: only valid if truly inline
  pool.ParallelFor(
      8, [&](size_t i) { order.push_back(static_cast<int>(i)); },
      /*max_parallelism=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ThreadPoolTest, MaxParallelismCapBoundsConcurrencyButRunsAll) {
  ThreadPool pool(8);
  constexpr size_t kN = 256;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  pool.ParallelFor(
      kN,
      [&](size_t i) {
        const int now = live.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        hits[i].fetch_add(1);
        live.fetch_sub(1);
      },
      /*max_parallelism=*/3);
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
  // At most `max_parallelism` tasks may ever run at once (2 claimed
  // workers + the caller). Peak observing fewer is fine — the cap is an
  // upper bound, not a scheduling guarantee.
  EXPECT_LE(peak.load(), 3);
}

// A call that finds the pool busy runs inline on its own thread — whether
// it is nested inside a task of the running call or comes concurrently
// from another thread — and still computes every index exactly once.
TEST(ThreadPoolTest, NestedCallOnBusyPoolRunsInline) {
  ThreadPool pool(4);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::vector<int64_t> out(kOuter * kInner, 0);
  std::vector<std::atomic<int>> foreign_thread(kOuter);
  pool.ParallelFor(kOuter, [&](size_t i) {
    const std::thread::id self = std::this_thread::get_id();
    pool.ParallelFor(kInner, [&](size_t j) {
      if (std::this_thread::get_id() != self) foreign_thread[i].fetch_add(1);
      out[i * kInner + j] = static_cast<int64_t>(i * 100 + j);
    });
  });
  for (size_t i = 0; i < kOuter; ++i) {
    EXPECT_EQ(foreign_thread[i].load(), 0) << "outer task " << i;
    for (size_t j = 0; j < kInner; ++j) {
      EXPECT_EQ(out[i * kInner + j], static_cast<int64_t>(i * 100 + j));
    }
  }
}

TEST(ThreadPoolTest, ConcurrentCallOnBusyPoolRunsInline) {
  ThreadPool pool(4);
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread owner([&] {
    pool.ParallelFor(2, [&](size_t i) {
      if (i != 0) return;
      holding.store(true);
      // Bounded wait: a regression that made the second call block on
      // this one fails the test instead of hanging it.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!release.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
  });
  while (!holding.load()) std::this_thread::yield();
  const std::thread::id self = std::this_thread::get_id();
  std::vector<int> order;  // unsynchronized: only valid if truly inline
  bool all_on_caller = true;
  pool.ParallelFor(6, [&](size_t i) {
    if (std::this_thread::get_id() != self) all_on_caller = false;
    order.push_back(static_cast<int>(i));
  });
  const bool returned_while_busy = !release.load();
  release.store(true);
  owner.join();
  EXPECT_TRUE(returned_while_busy);
  EXPECT_TRUE(all_on_caller);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  // Once released, the pool serves a parallel call again.
  std::vector<std::atomic<int>> hits(32);
  pool.ParallelFor(32, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(FanOutTest, WidthOneRunsInlineAndInOrder) {
  ASSERT_EQ(FanOutWidth(), 1);  // the process default
  std::vector<int> order;
  FanOut(5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(FanOutTest, EveryWidthRunsEveryIndexOnceWithSameResults) {
  constexpr size_t kN = 200;
  for (const int width : {1, 2, 4, 0}) {
    SetFanOutWidth(width);
    EXPECT_EQ(FanOutWidth(), width);
    std::vector<int64_t> out(kN, -1);
    // Nested fan-outs find the shared pool busy and run inline.
    FanOut(kN / 10, [&](size_t i) {
      FanOut(10, [&](size_t j) {
        out[i * 10 + j] = static_cast<int64_t>((i * 10 + j) * 3);
      });
    });
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(out[i], static_cast<int64_t>(i * 3)) << "width " << width;
    }
  }
  SetFanOutWidth(1);
}

}  // namespace
}  // namespace fdm
