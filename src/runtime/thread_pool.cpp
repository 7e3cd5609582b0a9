#include "runtime/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "util/env.h"

namespace dance::runtime {

namespace {

/// Pool whose job the current thread is executing (worker lane or a caller
/// participating in its own job). Nested loops on the same pool run inline.
thread_local const ThreadPool* tl_running_in = nullptr;

/// SerialGuard nesting depth for the current thread.
thread_local int tl_force_serial = 0;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int extra = std::max(0, num_threads - 1);
  workers_.reserve(static_cast<std::size_t>(extra));
  for (int i = 0; i < extra; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_job_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  tl_running_in = this;
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_job_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    if (job) work_on(*job);
  }
}

void ThreadPool::work_on(Job& job) {
  for (;;) {
    const long part = job.next_part.fetch_add(1, std::memory_order_relaxed);
    if (part >= job.num_parts) return;
    const long lo = job.begin + part * job.chunk;
    const long hi = std::min(job.end, lo + job.chunk);
    job.fn(job.ctx, lo, hi);
    if (job.parts_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.num_parts) {
      // Lock pairs with the caller's predicate check so the final wakeup
      // cannot slip between its check and its sleep.
      std::lock_guard<std::mutex> lk(mu_);
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::run(long begin, long end, long grain, RangeFn fn, void* ctx) {
  const long n = end - begin;
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const long lanes = num_threads();
  long parts = std::min<long>(lanes, (n + grain - 1) / grain);
  if (parts <= 1 || workers_.empty() || tl_running_in == this ||
      force_serial()) {
    fn(ctx, begin, end);
    return;
  }
  const long chunk = (n + parts - 1) / parts;
  parts = (n + chunk - 1) / chunk;

  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->ctx = ctx;
  job->begin = begin;
  job->end = end;
  job->chunk = chunk;
  job->num_parts = parts;

  std::lock_guard<std::mutex> submit(submit_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = job;
    ++generation_;
  }
  cv_job_.notify_all();

  const ThreadPool* prev = tl_running_in;
  tl_running_in = this;
  work_on(*job);
  tl_running_in = prev;

  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] {
      return job->parts_done.load(std::memory_order_acquire) == job->num_parts;
    });
    job_.reset();
  }
}

int default_num_threads() {
  // Fallback 0 is deliberately out of range: "unset or invalid" falls
  // through to the hardware default below.
  const int v = util::env_int("DANCE_NUM_THREADS", 0, 1, 1024);
  if (v >= 1) return v;
  return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
}

ThreadPool& global_pool() {
  static ThreadPool pool(default_num_threads());
  return pool;
}

bool force_serial() { return tl_force_serial > 0; }

SerialGuard::SerialGuard() { ++tl_force_serial; }
SerialGuard::~SerialGuard() { --tl_force_serial; }

}  // namespace dance::runtime
