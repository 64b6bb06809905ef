// Tests for the shared worker pool (common/thread_pool).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"

namespace cisqp {
namespace {

TEST(ThreadPoolTest, HardwareConcurrencyIsAtLeastOne) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1u);
}

TEST(ThreadPoolTest, ThreadCountMatchesRequest) {
  EXPECT_EQ(ThreadPool(1).thread_count(), 1u);
  EXPECT_EQ(ThreadPool(4).thread_count(), 4u);
  EXPECT_EQ(ThreadPool(0).thread_count(), ThreadPool::HardwareConcurrency());
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    constexpr std::size_t kN = 500;
    std::vector<std::atomic<int>> visits(kN);
    pool.ParallelFor(kN, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, ParallelForHandlesZeroAndOneItems) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  // threads=1 must execute on the calling thread, in index order — this is
  // the exact-sequential-reproduction contract the chase and plan search
  // rely on.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.ParallelFor(10, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstTaskError) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.ParallelFor(64,
                                [&](std::size_t i) {
                                  if (i == 13) throw std::runtime_error("bad");
                                  ++completed;
                                }),
               std::runtime_error);
  // The pool keeps draining the remaining indices (no cancellation), so all
  // non-throwing indices still ran and the pool stays usable.
  EXPECT_EQ(completed.load(), 63);
  int after = 0;
  pool.ParallelFor(5, [&](std::size_t) { ++after; });
  EXPECT_EQ(after, 5);
}

TEST(ThreadPoolTest, PaddedSlotsOccupyDistinctCacheLines) {
  // The false-sharing fix: per-worker slots are aligned AND padded to whole
  // cache lines, so adjacent slots can never share one.
  static_assert(alignof(PaddedSlot<int>) == kCacheLineBytes);
  static_assert(sizeof(PaddedSlot<int>) % kCacheLineBytes == 0);
  static_assert(alignof(PaddedSlot<std::size_t[9]>) == kCacheLineBytes);
  std::vector<PaddedSlot<int>> slots(4);
  for (std::size_t i = 1; i < slots.size(); ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&slots[i - 1].value);
    const auto b = reinterpret_cast<std::uintptr_t>(&slots[i].value);
    EXPECT_GE(b - a, kCacheLineBytes);
  }
}

TEST(ThreadPoolTest, GrainSizeVisitsEveryIndexOnce) {
  for (const std::size_t threads : {1u, 3u}) {
    for (const std::size_t grain : {1u, 7u, 64u, 1000u}) {
      ThreadPool pool(threads);
      constexpr std::size_t kN = 500;
      std::vector<std::atomic<int>> visits(kN);
      pool.ParallelFor(kN, grain, [&](std::size_t i) { ++visits[i]; });
      for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(visits[i].load(), 1)
            << "index " << i << " threads " << threads << " grain " << grain;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForChunksDispensesContiguousAlignedChunks) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 103;
  constexpr std::size_t kGrain = 10;
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.ParallelForChunks(kN, kGrain,
                         [&](std::size_t, std::size_t begin, std::size_t end) {
                           const std::lock_guard<std::mutex> lock(mu);
                           chunks.emplace_back(begin, end);
                         });
  ASSERT_EQ(chunks.size(), 11u);  // ceil(103 / 10)
  std::sort(chunks.begin(), chunks.end());
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    EXPECT_EQ(chunks[c].first, c * kGrain);
    EXPECT_EQ(chunks[c].second, std::min(kN, (c + 1) * kGrain));
  }
}

TEST(ThreadPoolTest, ParallelForChunksWorkerIdsAreDenseAndStable) {
  // Worker ids let callers accumulate into per-worker slots without locks:
  // they must stay within [0, thread_count) and id 0 must be the caller.
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::map<std::size_t, std::set<std::thread::id>> by_worker;
  pool.ParallelForChunks(64, 1,
                         [&](std::size_t worker, std::size_t, std::size_t) {
                           const std::lock_guard<std::mutex> lock(mu);
                           by_worker[worker].insert(std::this_thread::get_id());
                         });
  for (const auto& [worker, ids] : by_worker) {
    EXPECT_LT(worker, pool.thread_count());
    // One OS thread per worker id for the whole call — per-worker slots
    // never see concurrent writers.
    EXPECT_EQ(ids.size(), 1u) << "worker " << worker;
    if (worker == 0) {
      EXPECT_TRUE(ids.count(caller));
    }
  }
}

TEST(ThreadPoolTest, SingleChunkRunsInlineWithoutDispatch) {
  // A range that fits one chunk must run on the caller even with workers
  // available (no dispatch overhead for tiny ranges).
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t calls = 0;
  pool.ParallelForChunks(8, 100,
                         [&](std::size_t worker, std::size_t begin,
                             std::size_t end) {
                           EXPECT_EQ(std::this_thread::get_id(), caller);
                           EXPECT_EQ(worker, 0u);
                           EXPECT_EQ(begin, 0u);
                           EXPECT_EQ(end, 8u);
                           ++calls;
                         });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPoolTest, GrainedParallelForRethrowsAndDrains) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.ParallelFor(64, 8,
                                [&](std::size_t i) {
                                  if (i == 13) throw std::runtime_error("bad");
                                  ++completed;
                                }),
               std::runtime_error);
  // Chunks after the throwing one still run (the dispenser keeps going);
  // only the throwing chunk's tail is lost — indices 14..15 of its chunk.
  EXPECT_GE(completed.load(), 64 - 3);
  int after = 0;
  pool.ParallelFor(5, 2, [&](std::size_t) { ++after; });
  EXPECT_EQ(after, 5);
}

TEST(ThreadPoolTest, CallerParticipatesInParallelFor) {
  // A pool of size N uses the caller plus N-1 workers: with threads=2 at
  // most two distinct thread ids touch the work.
  ThreadPool pool(2);
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.ParallelFor(200, [&](std::size_t) {
    const std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_LE(ids.size(), 2u);
  EXPECT_GE(ids.size(), 1u);
}

}  // namespace
}  // namespace cisqp
