#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size());
  std::size_t k = static_cast<std::size_t>(rank);
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

void Reservoir::add(double value) {
  ++seen_;
  if (samples_.size() < kCapacity) {
    samples_.push_back(value);
    return;
  }
  state_ = mix64(state_);
  const std::uint64_t slot = state_ % seen_;
  if (slot < kCapacity) samples_[slot] = value;
}

void Outcome::fail(const std::string& why) {
  add_failures(1, {why});
}

void Outcome::add_failures(std::uint64_t count,
                           const std::vector<std::string>& why) {
  if (count == 0) return;
  for (std::size_t k = 0; k < why.size() && failed + k < 5; ++k) {
    note("failure", why[k]);
  }
  failed += count;
  correct = false;
}

std::string format(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

void fill_latency_metrics(Outcome& out, const std::vector<double>& latencies_us,
                          std::uint64_t ok, double wall_s, double cpu_s) {
  out.metrics["p50_us"] = {percentile(latencies_us, 0.50), "us"};
  out.metrics["cpu_us_per_req"] = {
      cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(ok, 1)), "us"};
  out.metrics["ok_pct"] = {
      100.0 * static_cast<double>(out.attempted - out.failed) /
          static_cast<double>(std::max<std::uint64_t>(out.attempted, 1)),
      "%"};
  // Printed, not gated: on a shared VM these move with the host's load far
  // more than with the program (README.md, "Left out").
  out.note("p90_us", format("%.3f", percentile(latencies_us, 0.90)));
  out.note("p99_us", format("%.3f", percentile(latencies_us, 0.99)));
  out.note("throughput_rps", format("%.3f", static_cast<double>(ok) / wall_s));
  out.note("latency_samples", std::to_string(latencies_us.size()));
}

}  // namespace perfbench
