#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dance::runtime {

/// Persistent worker pool behind every parallel loop in the library.
///
/// Workers are spawned once and parked on a condition variable between jobs,
/// so a `parallel_for` costs a wakeup instead of a thread spawn + join. A job
/// is a *statically partitioned* range: [begin, end) is cut into fixed
/// contiguous chunks of at least `grain` elements up-front, and lanes (the
/// workers plus the calling thread, which participates) claim whole chunks.
/// Which lane runs which chunk is scheduling-dependent, but the chunk
/// boundaries — and therefore the (lo, hi) ranges the body observes — depend
/// only on (n, grain, lane count). Bodies that write disjoint outputs per
/// index and keep any accumulation inside a single body invocation produce
/// results bit-identical to a serial run at any thread count.
///
/// Reentrancy: a body that calls back into the same pool runs that inner
/// loop inline on the calling lane (no deadlock, no oversubscription).
/// Distinct external threads may call into one pool concurrently; jobs are
/// serialized internally.
class ThreadPool {
 public:
  /// Type-erased loop body: fn(ctx, lo, hi) processes [lo, hi).
  using RangeFn = void (*)(void* ctx, long lo, long hi);

  /// `num_threads` is the total lane count (>= 1). The pool spawns
  /// `num_threads - 1` workers; the calling thread is always a lane.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Execution lanes available to a job (workers + caller).
  [[nodiscard]] int num_threads() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Blocking type-erased parallel loop. Runs inline when the range is
  /// smaller than `grain`, when the pool has a single lane, when called
  /// from inside one of this pool's jobs, or when serial mode is forced.
  void run(long begin, long end, long grain, RangeFn fn, void* ctx);

  /// Blocking parallel loop; `body(lo, hi)` is invoked on chunk sub-ranges.
  /// No std::function: the body is passed by pointer through `run`, so the
  /// per-call cost is a few atomics and (at most) one condvar broadcast.
  template <typename Body>
  void parallel_for(long begin, long end, long grain, const Body& body) {
    run(begin, end, grain, &invoke_body<Body>,
        const_cast<void*>(static_cast<const void*>(&body)));
  }

 private:
  struct Job {
    RangeFn fn = nullptr;
    void* ctx = nullptr;
    long begin = 0;
    long end = 0;
    long chunk = 0;      ///< elements per partition (static)
    long num_parts = 0;  ///< partition count
    std::atomic<long> next_part{0};
    std::atomic<long> parts_done{0};
  };

  template <typename Body>
  static void invoke_body(void* ctx, long lo, long hi) {
    (*static_cast<const Body*>(ctx))(lo, hi);
  }

  void worker_loop();
  void work_on(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mu_;                   ///< guards job_ / generation_ / stop_
  std::condition_variable cv_job_;  ///< workers park here between jobs
  std::condition_variable cv_done_; ///< caller waits for job completion
  std::shared_ptr<Job> job_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::mutex submit_mu_;  ///< serializes jobs from distinct external threads
};

/// Lane count the global pool is built with: `DANCE_NUM_THREADS` if set to a
/// positive integer, else `std::thread::hardware_concurrency()` (min 1).
/// Reads the environment on every call; the global pool samples it once.
[[nodiscard]] int default_num_threads();

/// The process-wide pool. Lazily constructed on first use and kept alive for
/// the process lifetime; thread count is fixed at first touch.
[[nodiscard]] ThreadPool& global_pool();

/// True while the *calling thread* is inside a SerialGuard scope: all pool
/// loops issued from it run inline. Used to compare serial vs. pooled
/// execution (tests, benchmarks) without a second code path.
[[nodiscard]] bool force_serial();

/// RAII switch putting the current thread into forced-serial mode.
class SerialGuard {
 public:
  SerialGuard();
  ~SerialGuard();
  SerialGuard(const SerialGuard&) = delete;
  SerialGuard& operator=(const SerialGuard&) = delete;
};

}  // namespace dance::runtime
