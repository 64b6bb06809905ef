// ThreadPool: the library's shared worker-pool substrate.
//
// A fixed-size pool of detached workers consuming a FIFO task queue.
// `ParallelFor` fans an index range across the workers and blocks until
// every index ran. The calling thread always participates in `ParallelFor`,
// so a pool built for N-way parallelism spawns N-1 workers and `threads=1`
// spawns none at all — every task then runs inline on the caller, byte-for-
// byte reproducing sequential execution (the determinism contract the chase
// and the plan search rely on; see DESIGN.md §9).
//
// Determinism is the caller's half of the contract: tasks write results
// into per-index slots (never append to shared containers) and the caller
// reduces the slots in index order after `ParallelFor` returns. The pool
// guarantees only that all indices ran; it promises nothing about order.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace cisqp {

/// One cache line, the unit of false sharing the padded slot types guard
/// against.
inline constexpr std::size_t kCacheLineBytes = 64;

/// A cache-line-aligned (and therefore cache-line-padded) value slot. Used
/// for per-worker accumulators: adjacent slots written by different workers
/// never share a line, so concurrent updates don't ping-pong the cache.
template <typename T>
struct alignas(kCacheLineBytes) PaddedSlot {
  T value{};
};

class ThreadPool {
 public:
  /// `threads` is the target parallelism including the calling thread:
  /// `threads-1` workers are spawned. 0 means hardware concurrency.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Parallelism this pool was built for (workers + the participating
  /// caller); at least 1.
  std::size_t thread_count() const noexcept { return workers_.size() + 1; }

  /// `std::thread::hardware_concurrency()`, clamped to at least 1.
  static std::size_t HardwareConcurrency() noexcept;

  /// Process-wide count of ThreadPool constructions, ever. Regression guard
  /// for paths that must reuse a shared pool instead of respawning one per
  /// call (the executor's SharedQueryPool; see serving_test).
  static std::uint64_t constructed_count() noexcept;

  /// Invokes `fn(i)` for every i in [0, n), distributing indices across the
  /// workers and the calling thread; returns when all n invocations
  /// finished. An exception thrown by any invocation is rethrown on the
  /// caller (remaining indices still run). With no workers (or n == 1) the
  /// loop runs inline in index order.
  template <typename F>
  void ParallelFor(std::size_t n, F fn) {
    ParallelFor(n, /*grain=*/1, std::move(fn));
  }

  /// Grain-size-aware variant: indices are dispensed in contiguous chunks of
  /// up to `grain` so tiny per-index bodies don't pay one atomic fetch per
  /// index. A range that fits a single chunk runs inline on the caller — no
  /// dispatch at all.
  template <typename F>
  void ParallelFor(std::size_t n, std::size_t grain, F fn) {
    ParallelForChunks(n, grain,
                      [&fn](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) fn(i);
                      });
  }

  /// The chunked core: invokes `fn(worker, begin, end)` over contiguous
  /// chunks [begin, end) of [0, n), each at most `grain` long, claimed from
  /// an atomic dispenser. `worker` is a dense id in [0, thread_count()) —
  /// 0 is the participating caller — stable for the whole call, so callers
  /// can accumulate into per-worker `PaddedSlot`s without synchronization.
  /// Inline execution (no workers, or a single chunk) visits chunks in
  /// ascending order on the caller as worker 0, reproducing the sequential
  /// loop exactly. Exceptions park in per-worker padded slots (no shared
  /// error mutex to contend or false-share) and the first, in worker order,
  /// is rethrown after every chunk ran.
  template <typename F>
  void ParallelForChunks(std::size_t n, std::size_t grain, F fn) {
    if (n == 0) return;
    if (grain == 0) grain = 1;
    const std::size_t chunks = (n + grain - 1) / grain;
    if (workers_.empty() || chunks == 1) {
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t begin = c * grain;
        fn(std::size_t{0}, begin, std::min(n, begin + grain));
      }
      return;
    }
    std::atomic<std::size_t> next{0};
    // One helper per worker, capped by the chunk count; the caller drains
    // alongside them, so small ranges never pay for idle helpers.
    const std::size_t helpers = std::min(workers_.size(), chunks - 1);
    std::vector<PaddedSlot<std::exception_ptr>> errors(helpers + 1);
    auto drain = [&](std::size_t worker) {
      for (;;) {
        const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
        if (c >= chunks) return;
        const std::size_t begin = c * grain;
        try {
          fn(worker, begin, std::min(n, begin + grain));
        } catch (...) {
          if (!errors[worker].value) {
            errors[worker].value = std::current_exception();
          }
        }
      }
    };
    Latch done(helpers);
    for (std::size_t h = 0; h < helpers; ++h) {
      Enqueue([&, h] {
        drain(h + 1);
        done.CountDown();
      });
    }
    drain(0);
    done.Wait();
    for (const PaddedSlot<std::exception_ptr>& slot : errors) {
      if (slot.value) std::rethrow_exception(slot.value);
    }
  }

 private:
  /// Blocks until `count` CountDown calls happened (std::latch is C++20 but
  /// kept out of some standard libraries this builds against).
  class Latch {
   public:
    explicit Latch(std::size_t count) : remaining_(count) {}
    void CountDown() {
      const std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) cv_.notify_all();
    }
    void Wait() {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return remaining_ == 0; });
    }

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::size_t remaining_;
  };

  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
};

}  // namespace cisqp
