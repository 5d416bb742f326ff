// A small fixed-size worker pool for real (wall-clock) parallelism.
//
// The simulation itself is single-threaded over a virtual clock; the pool
// exists for genuinely CPU-bound host work — chunked checkpoint-image
// compression during migration — where the paper's quad-core devices would
// run FLZ1 streams on independent cores. Work items must not touch the
// simulated world (SimClock, Device, ...), which is not thread-safe.
#ifndef FLUX_SRC_BASE_THREAD_POOL_H_
#define FLUX_SRC_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace flux {

class ThreadPool {
 public:
  // `threads` <= 1 degenerates to inline execution (no workers spawned),
  // so callers can pass a configured width straight through.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // Enqueues one task. Tasks must not throw.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished.
  void Wait();

  // Runs fn(0) ... fn(n-1) across the pool with dynamic (work-stealing-ish)
  // index assignment, blocking until all complete. Safe to call with an
  // empty pool (runs inline) and reentrant-safe from the owning thread.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // Runs fn(begin, end) over a static, deterministic split of [0, n): the
  // range is cut into size()+1 contiguous chunks (one per worker plus the
  // caller), chunk r covering [r*n/W, (r+1)*n/W). Unlike ParallelFor, the
  // index->runner assignment is a pure function of (n, pool width), which is
  // what the deterministic scheduler driver (event_queue.h) needs; it is
  // also friendlier to per-chunk locality in compress.cc. Blocks until all
  // chunks complete; runs inline with an empty pool.
  void ParallelForChunked(size_t n,
                          const std::function<void(size_t, size_t)>& fn);

  // A sensible default width for this host, bounded to the paper's
  // quad-core devices unless the caller asks for more.
  static int DefaultThreads();

  // A lazily-created process-shared pool of the given width (one per
  // distinct width, never destroyed before exit). Fleet runs use this so
  // per-MigrationManager compression does not spawn pool-per-device
  // threads. Thread-safe.
  static ThreadPool* Shared(int threads);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;  // queued + currently running
  bool shutdown_ = false;
};

// Runs fn(i) for every i in [0, n): over `pool`'s static split
// (ParallelForChunked) when given, inline otherwise. The split suits
// roughly equal-cost items such as image chunks; results written per index
// are identical either way.
template <typename Fn>
void ForEachChunk(ThreadPool* pool, size_t n, const Fn& fn) {
  auto run = [&fn](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      fn(i);
    }
  };
  if (pool != nullptr) {
    pool->ParallelForChunked(n, run);
  } else {
    run(0, n);
  }
}

}  // namespace flux

#endif  // FLUX_SRC_BASE_THREAD_POOL_H_
