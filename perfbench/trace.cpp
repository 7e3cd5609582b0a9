#include "trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/export.h"

namespace perfbench {

void Tracer::Buffer::add(const SpanRecord& span) {
  if (kept_.size() < kKeptPerBuffer) kept_.push_back(span);
  add_total(span.name, span.dur_us);
}

void Tracer::Buffer::add_total(const char* name, double value_us) {
  for (Total& t : totals_) {
    if (t.name == name || std::strcmp(t.name, name) == 0) {
      ++t.count;
      t.sum_us += value_us;
      return;
    }
  }
  totals_.push_back({name, 1, value_us});
}

Tracer::Tracer() : anchor_(std::chrono::steady_clock::now()) {}

Tracer::Buffer& Tracer::buffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>(*this));
  return *buffers_.back();
}

std::uint64_t Tracer::next_id() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - anchor_)
      .count();
}

std::uint64_t Tracer::count(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) {
    for (const auto& t : b->totals_) {
      if (std::strcmp(t.name, name) == 0) n += t.count;
    }
  }
  return n;
}

double Tracer::mean_us(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  double sum = 0.0;
  for (const auto& b : buffers_) {
    for (const auto& t : b->totals_) {
      if (std::strcmp(t.name, name) == 0) {
        n += t.count;
        sum += t.sum_us;
      }
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

bool Tracer::write_json(const std::string& path, const std::string& workload,
                        std::uint64_t seed) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
    << ", \"spans\": [";
  bool first = true;
  char line[256];
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (const SpanRecord& s : b->kept_) {
      std::snprintf(line, sizeof(line),
                    "%s\n  {\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                    "\"name\": \"%s\", \"start_us\": %.3f, \"dur_us\": %.3f}",
                    first ? "" : ",", static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.request), s.name,
                    s.start_us, s.dur_us);
      f << line;
      first = false;
    }
  }
  f << "\n], \"obs\": " << dance::obs::export_json() << "}\n";
  return static_cast<bool>(f);
}

Span::Span(Tracer::Buffer* buffer, const char* name, std::uint64_t parent,
           std::uint64_t request)
    : buffer_(buffer) {
  if (buffer_ == nullptr) {
    open_ = false;
    return;
  }
  record_.id = buffer_->tracer().next_id();
  record_.parent = parent;
  record_.request = request;
  record_.name = name;
  record_.start_us = buffer_->tracer().now_us();
}

Span::~Span() {
  if (open_) finish();
}

double Span::finish() {
  if (!open_) return record_.dur_us;
  open_ = false;
  record_.dur_us = buffer_->tracer().now_us() - record_.start_us;
  buffer_->add(record_);
  return record_.dur_us;
}

TimingBackend::TimingBackend(dance::serve::CostQueryBackend& inner,
                             Tracer& tracer)
    : inner_(inner), tracer_(tracer) {}

std::vector<dance::serve::Response> TimingBackend::query_batch(
    std::span<const dance::serve::Request> requests) {
  const RequestContext* first = nullptr;
  for (const auto& r : requests) {
    if (r.pin) {
      first = static_cast<const RequestContext*>(r.pin.get());
      break;
    }
  }
  if (first == nullptr) return inner_.query_batch(requests);

  if (buffer_ == nullptr) buffer_ = &tracer_.buffer();
  Span span(buffer_, "backend.batch", first->query_span,
            first->request);
  auto out = inner_.query_batch(requests);
  const double us = span.finish();
  ++calls_;
  rows_ += requests.size();
  busy_us_ += us;
  for (const auto& r : requests) {
    if (r.pin) static_cast<const RequestContext*>(r.pin.get())->backend_us = us;
  }
  return out;
}

}  // namespace perfbench
