#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <span>
#include <vector>

#include "obs/registry.h"
#include "serve/backend.h"

namespace dance::serve {

/// Coalesces concurrent cost queries into batched backend calls by group
/// commit.
///
/// A blocking `query` parks its request in a FIFO queue. A caller that finds
/// no batch inside the backend becomes the leader: it takes up to
/// `max_batch` of the oldest parked requests, answers them with one
/// `query_batch` call on its own thread, and hands each parked caller its
/// response (or the batch's exception). Requests that arrive while a batch
/// runs form the next batch. A lone caller therefore never waits, and
/// batches grow only as fast as callers pile up behind a busy backend.
///
/// At most one caller is inside the backend at a time, for every
/// `max_batch`, so backends need not be thread-safe. The heavy math inside
/// the backends fans out onto `runtime::global_pool()` from the leader's
/// thread (inline when the leader is itself a pool job); see docs/serve.md
/// for the one caller mix that can deadlock.
class MicroBatcher {
 public:
  struct Options {
    int max_batch = 32;  ///< largest batch; <= 1 means batches of one
  };

  /// Per-instance counters for the stats report. The same events also feed
  /// the process-global obs counters serve.batch.{requests,executed} and the
  /// serve.batch.size histogram used by the exporters.
  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t batches = 0;
    std::uint64_t max_batch_seen = 0;

    [[nodiscard]] double mean_batch() const {
      return batches == 0 ? 0.0
                          : static_cast<double>(requests) /
                                static_cast<double>(batches);
    }
  };

  MicroBatcher(CostQueryBackend& backend, Options opts);

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Blocking single query; coalesced with concurrent callers. Backend
  /// exceptions propagate to every caller in the failed batch.
  [[nodiscard]] Response query(const Request& request);

  /// Bulk entry point: waits until no batch is inside the backend, then
  /// holds it while it answers all `requests` in `max_batch`-sized backend
  /// calls on the calling thread. Used by Service::query_many and the
  /// replay bench.
  [[nodiscard]] std::vector<Response> query_span(
      std::span<const Request> requests);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] CostQueryBackend& backend() { return backend_; }

 private:
  /// A parked `query`, on its caller's stack until the leader sets `done`.
  struct Pending {
    const Request* request = nullptr;
    Response response;
    std::exception_ptr error;
    bool done = false;
  };

  /// One leader turn: answers the oldest `max_batch` parked requests.
  /// Called and returns with `lk` held and `busy_` clear.
  void lead(std::unique_lock<std::mutex>& lk);

  /// Record one executed batch of `n` requests (instance atomics + the
  /// process-global obs instruments). Called before any caller is handed
  /// its answer, so a caller that has its response also observes the batch.
  void count_batch(std::size_t n);

  [[nodiscard]] std::size_t batch_cap() const;

  CostQueryBackend& backend_;
  Options opts_;

  std::mutex mu_;
  std::condition_variable cv_;    ///< signalled whenever `busy_` clears
  std::vector<Pending*> queue_;   ///< FIFO: front() is the oldest arrival
  bool busy_ = false;             ///< a caller is inside the backend

  // Lock-free per-instance counters; stats() assembles a Stats from these.
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> max_batch_seen_{0};
  obs::Counter& obs_requests_;
  obs::Counter& obs_batches_;
  obs::Histogram& obs_batch_size_;
};

}  // namespace dance::serve
