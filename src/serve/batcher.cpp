#include "serve/batcher.h"

#include <algorithm>
#include <utility>

namespace dance::serve {

MicroBatcher::MicroBatcher(CostQueryBackend& backend, Options opts)
    : backend_(backend),
      opts_(opts),
      obs_requests_(obs::Registry::global().counter("serve.batch.requests")),
      obs_batches_(obs::Registry::global().counter("serve.batch.executed")),
      obs_batch_size_(obs::Registry::global().histogram(
          "serve.batch.size", {1, 2, 4, 8, 16, 32, 64, 128, 256})) {}

std::size_t MicroBatcher::batch_cap() const {
  return static_cast<std::size_t>(std::max(1, opts_.max_batch));
}

Response MicroBatcher::query(const Request& request) {
  Pending self;
  self.request = &request;  // stays alive: this caller waits for `done`
  std::unique_lock<std::mutex> lk(mu_);
  queue_.push_back(&self);
  // While `self` is not done it is either in queue_ or in the running batch,
  // so a caller that finds the backend idle always has something to lead.
  while (!self.done) {
    if (busy_) {
      cv_.wait(lk);
    } else {
      lead(lk);
    }
  }
  if (self.error) std::rethrow_exception(self.error);
  return std::move(self.response);
}

void MicroBatcher::lead(std::unique_lock<std::mutex>& lk) {
  const auto n = static_cast<std::ptrdiff_t>(
      std::min(queue_.size(), batch_cap()));
  const std::vector<Pending*> batch(queue_.begin(), queue_.begin() + n);
  queue_.erase(queue_.begin(), queue_.begin() + n);
  busy_ = true;
  lk.unlock();

  std::vector<Response> responses;
  std::exception_ptr error;
  try {
    std::vector<Request> requests;
    requests.reserve(batch.size());
    for (const Pending* p : batch) requests.push_back(*p->request);
    count_batch(batch.size());
    responses = backend_.query_batch(requests);
  } catch (...) {
    error = std::current_exception();
  }

  lk.lock();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (error) {
      batch[i]->error = error;
    } else {
      batch[i]->response = std::move(responses[i]);
    }
    batch[i]->done = true;
  }
  busy_ = false;
  cv_.notify_all();
}

std::vector<Response> MicroBatcher::query_span(
    std::span<const Request> requests) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return !busy_; });
    busy_ = true;
  }
  std::vector<Response> out;
  std::exception_ptr error;
  try {
    out.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); i += batch_cap()) {
      const std::size_t n = std::min(batch_cap(), requests.size() - i);
      auto chunk = backend_.query_batch(requests.subspan(i, n));
      count_batch(n);
      out.insert(out.end(), chunk.begin(), chunk.end());
    }
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    busy_ = false;
    cv_.notify_all();
  }
  if (error) std::rethrow_exception(error);
  return out;
}

MicroBatcher::Stats MicroBatcher::stats() const {
  Stats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.max_batch_seen = max_batch_seen_.load(std::memory_order_relaxed);
  return out;
}

void MicroBatcher::count_batch(std::size_t n) {
  const auto sz = static_cast<std::uint64_t>(n);
  requests_.fetch_add(sz, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = max_batch_seen_.load(std::memory_order_relaxed);
  while (seen < sz && !max_batch_seen_.compare_exchange_weak(
                          seen, sz, std::memory_order_relaxed)) {
  }
  obs_requests_.inc(sz);
  obs_batches_.inc();
  obs_batch_size_.observe(static_cast<double>(sz));
}

}  // namespace dance::serve
