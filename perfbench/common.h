// Shared plumbing of the benchmark program: arguments, clocks, process
// resource readings, latency samples and the result record every workload
// fills in. See README.md in this directory for what is measured and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Workload size. `kFull` is what the benchmark command measures; `kTiny`
/// is the smoke-test size, also used by the traced run to probe the layers
/// its own workload does not reach.
enum class Size { kFull, kTiny };

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  /// Which of the run's processes this is. Each process of a run draws its
  /// inputs from its own part of the seed's input stream.
  std::uint64_t part = 0;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process user+sys CPU seconds, all threads.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();
/// Logical CPUs the process may run on.
[[nodiscard]] int online_cpus();

/// SplitMix64: the per-index input generator. Request i of a workload is a
/// pure function of (seed, i), so the same seed gives the same inputs no
/// matter how the client threads interleave.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

/// Nearest-rank percentile `q` in [0, 1] of `v` (empty -> 0).
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Fixed-capacity uniform reservoir of latency samples for one client
/// thread. Memory stays constant however many requests a run completes, so
/// peak RSS does not grow with throughput.
class Reservoir {
 public:
  static constexpr std::size_t kCapacity = 1 << 16;

  explicit Reservoir(std::uint64_t seed) : state_(seed) {
    samples_.reserve(kCapacity);
  }
  void add(double value);
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
  std::vector<double> samples_;
};

/// One named metric value with its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports. `metrics` holds the end-to-end
/// metrics; `layers` the per-layer metrics of a traced run; `info` the
/// workload properties and ungated figures printed as text.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> layers;
  std::vector<std::pair<std::string, std::string>> info;

  void note(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  /// Counts one failure; the first few reasons are kept for the report.
  void fail(const std::string& why);
  void add_failures(std::uint64_t count, const std::vector<std::string>& why);
};

/// Formats with printf-style `fmt` (at most 255 characters).
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Fills the gated end-to-end metrics (p50_us, cpu_us_per_req, ok_pct) of a
/// closed-loop timed phase, and notes the ungated p90/p99/throughput figures.
/// `latencies_us` are per-request samples, `ok` the completed and verified
/// requests, `wall_s` and `cpu_s` the phase's wall and process CPU time.
/// `setup_s` and `peak_rss_mb` are added by the caller.
void fill_latency_metrics(Outcome& out, const std::vector<double>& latencies_us,
                          std::uint64_t ok, double wall_s, double cpu_s);

}  // namespace perfbench
