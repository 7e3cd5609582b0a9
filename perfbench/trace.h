// In-memory span recorder for the traced run, and a timing decorator for
// serve backends. Spans are recorded around the benchmark's own calls into
// the library's public functions; nothing inside the library is touched.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "serve/backend.h"

namespace perfbench {

/// One finished span. `request` groups the spans of one request (or one
/// search run); `parent` is the span that caused this one (0 = root).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";
  double start_us = 0.0;
  double dur_us = 0.0;
};

class Tracer {
 public:
  /// Spans kept per buffer for the trace file; beyond it only the per-name
  /// totals grow, so a long traced run stays bounded in memory.
  static constexpr std::size_t kKeptPerBuffer = 20000;

  /// Single-writer span store. Each thread that records spans takes its own
  /// buffer from `Tracer::buffer()`, so recording never takes a lock.
  class Buffer {
   public:
    explicit Buffer(Tracer& tracer) : tracer_(tracer) {}
    [[nodiscard]] Tracer& tracer() const { return tracer_; }
    void add(const SpanRecord& span);
    /// A duration that is not a span of its own (e.g. a derived wait).
    void add_total(const char* name, double value_us);

   private:
    friend class Tracer;
    Tracer& tracer_;
    struct Total {
      const char* name;
      std::uint64_t count;
      double sum_us;
    };
    std::vector<SpanRecord> kept_;
    std::vector<Total> totals_;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A new buffer owned by the tracer, valid for the tracer's lifetime.
  [[nodiscard]] Buffer& buffer();
  [[nodiscard]] std::uint64_t next_id();
  /// Microseconds since the tracer was created.
  [[nodiscard]] double now_us() const;

  /// Count and mean duration (us) of every record named `name`, across all
  /// buffers (0 when there is none). Read only after the recording threads
  /// have joined.
  [[nodiscard]] std::uint64_t count(const char* name) const;
  [[nodiscard]] double mean_us(const char* name) const;

  /// Writes the kept spans plus `obs::export_json()` as one JSON document.
  /// Returns false on I/O failure.
  bool write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed) const;

 private:
  std::chrono::steady_clock::time_point anchor_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<std::uint64_t> next_id_{1};
};

/// RAII span around one call. A null buffer records nothing, which is how
/// the untraced half of a traced run shares the same code.
class Span {
 public:
  Span(Tracer::Buffer* buffer, const char* name, std::uint64_t parent,
       std::uint64_t request);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return record_.id; }
  /// Ends the span now; returns its duration in microseconds.
  double finish();

 private:
  Tracer::Buffer* buffer_;
  SpanRecord record_;
  bool open_ = true;
};

/// Per-request context carried through the service to the backend in the
/// request's opaque `pin`. The micro-batcher copies requests (pin included)
/// into the batch it hands the backend, so the decorator can tell which
/// requests a batch answered and report its time back to each of them.
struct RequestContext {
  std::uint64_t request = 0;
  std::uint64_t query_span = 0;
  /// Duration of the backend batch that answered this request; negative
  /// while unanswered by a backend (a cache hit never sets it). Written by
  /// the batch thread before the request's promise is fulfilled, read by
  /// the client after its query returns.
  mutable double backend_us = -1.0;
};

/// Timing decorator implementing `CostQueryBackend` around the real backend.
/// Every batch that carries at least one traced request is recorded as a
/// `backend.batch` span; untraced batches are forwarded without recording.
class TimingBackend : public dance::serve::CostQueryBackend {
 public:
  TimingBackend(dance::serve::CostQueryBackend& inner, Tracer& tracer);

  [[nodiscard]] std::vector<dance::serve::Response> query_batch(
      std::span<const dance::serve::Request> requests) override;
  [[nodiscard]] const char* name() const override { return inner_.name(); }

  /// Traced batches and the rows they answered. Read after the clients and
  /// the service have stopped.
  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] std::uint64_t rows() const { return rows_; }
  [[nodiscard]] double busy_us() const { return busy_us_; }

 private:
  dance::serve::CostQueryBackend& inner_;
  Tracer& tracer_;
  Tracer::Buffer* buffer_ = nullptr;  ///< taken lazily on the batch thread
  std::uint64_t calls_ = 0;
  std::uint64_t rows_ = 0;
  double busy_us_ = 0.0;
};

}  // namespace perfbench
