// The three serve workloads: nasloop-hit, miss-exact and miss-surrogate.
//
// One Service per run, two closed-loop client threads, every request one
// generated wire line answered by serve::wire::answer_line and timed around
// the whole call. The traced run alternates untraced and traced blocks; a
// traced request is answered through the same public pieces answer_line is
// made of (parse_request, Service::query, response_line) with a span around
// each, and the backend sits behind the TimingBackend decorator.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string_view>
#include <thread>

#include "accel/cost_function.h"
#include "arch/cost_table.h"
#include "evalnet/evaluator.h"
#include "hwgen/exhaustive.h"
#include "obs/registry.h"
#include "runtime/thread_pool.h"
#include "serve/backend.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dance;

constexpr int kClients = 2;
constexpr int kWorkingSet = 256;        ///< nasloop-hit distinct keys
constexpr std::uint64_t kEvaluatorSeed = 17;  ///< fixed surrogate weights
constexpr std::uint64_t kSampleEvery = 64;    ///< miss oracle candidates
/// Request indices of process `part` start at part * kRequestsPerPart, so
/// the processes of a run ask for disjoint keys. Far below the 7^9 keys, so
/// requests never reach the cache-fill keys at the end of the permutation.
constexpr std::uint64_t kRequestsPerPart = 1 << 20;

/// A seed-drawn bijection of [0, 7^slots): request i of a miss trace asks
/// for architecture at(i), so no key repeats within a run. An affine map
/// modulo the next prime, cycle-walked back into range.
class ArchPermutation {
 public:
  ArchPermutation(std::uint64_t seed, int slots) : slots_(slots) {
    for (int s = 0; s < slots; ++s) size_ *= arch::kNumCandidateOps;
    prime_ = size_;
    const auto is_prime = [](std::uint64_t n) {
      if (n < 2) return false;
      for (std::uint64_t d = 2; d * d <= n; ++d) {
        if (n % d == 0) return false;
      }
      return true;
    };
    while (!is_prime(prime_)) ++prime_;
    a_ = 1 + mix64(seed ^ 0xa5a5a5a5ULL) % (prime_ - 1);
    b_ = mix64(seed ^ 0x5a5a5a5aULL) % prime_;
  }

  [[nodiscard]] std::uint64_t size() const { return size_; }

  [[nodiscard]] arch::Architecture at(std::uint64_t i) const {
    std::uint64_t x = i;
    do {
      x = (a_ * x + b_) % prime_;
    } while (x >= size_);
    arch::Architecture a(static_cast<std::size_t>(slots_));
    for (auto& op : a) {
      op = static_cast<arch::CandidateOp>(x % arch::kNumCandidateOps);
      x /= arch::kNumCandidateOps;
    }
    return a;
  }

 private:
  int slots_;
  std::uint64_t size_ = 1;
  std::uint64_t prime_ = 0;
  std::uint64_t a_ = 1;
  std::uint64_t b_ = 0;
};

std::string arch_line(std::uint64_t id, const arch::Architecture& a) {
  std::string s = "{\"id\": " + std::to_string(id) + ", \"arch\": [";
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (k != 0) s += ", ";
    s += std::to_string(static_cast<int>(a[k]));
  }
  return s + "]}";
}

/// `"encoding": [...]}` — the part of an encoding-form line after the id.
std::string encoding_tail(const std::vector<float>& enc) {
  std::string s = "\"encoding\": [";
  for (std::size_t k = 0; k < enc.size(); ++k) {
    if (k != 0) s += ", ";
    s += enc[k] != 0.0F ? "1.0" : "0.0";
  }
  return s + "]}";
}

/// True when two response lines agree in every field but `id` and `cached`.
bool same_except_id_and_cached(std::string_view a, std::string_view b) {
  constexpr std::string_view kCached = "\"cached\": ";
  const auto split = [&](std::string_view s, std::string_view& head,
                         std::string_view& tail) {
    const std::size_t body = s.find(", ");
    const std::size_t flag = s.find(kCached);
    if (body == std::string_view::npos || flag == std::string_view::npos ||
        flag < body) {
      return false;
    }
    head = s.substr(body, flag - body);
    const std::size_t end = s.find_first_of(",}", flag + kCached.size());
    if (end == std::string_view::npos) return false;
    tail = s.substr(end);
    return true;
  };
  std::string_view ha, ta, hb, tb;
  return split(a, ha, ta) && split(b, hb, tb) && ha == hb && ta == tb;
}

/// Raw text of `key`'s value in a response line ("" when absent).
std::string_view field(std::string_view line, std::string_view key) {
  std::string pattern = "\"";
  pattern.append(key).append("\": ");
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return {};
  const std::size_t from = at + pattern.size();
  const std::size_t end = line.find_first_of(",}", from);
  return line.substr(from, end == std::string_view::npos ? end : end - from);
}

/// Compares a served line with an oracle's answer: hardware exactly, metrics
/// at the wire's %.6g. Returns "" on agreement, else what differed.
std::string check_answer(std::string_view line, const accel::CostMetrics& m,
                         const accel::AcceleratorConfig& c) {
  const std::pair<const char*, std::string> expected[] = {
      {"latency_ms", format("%.6g", m.latency_ms)},
      {"energy_mj", format("%.6g", m.energy_mj)},
      {"area_mm2", format("%.6g", m.area_mm2)},
      {"pe_x", std::to_string(c.pe_x)},
      {"pe_y", std::to_string(c.pe_y)},
      {"rf_size", std::to_string(c.rf_size)},
      {"dataflow", format("\"%s\"", accel::to_string(c.dataflow).c_str())},
      {"degraded", "false"},
  };
  for (const auto& [key, want] : expected) {
    if (field(line, key) != want) {
      return format("%s: served %.40s, oracle %.40s", key,
                    std::string(field(line, key)).c_str(), want.c_str());
    }
  }
  return "";
}

struct Counters {
  std::uint64_t hits, misses, evictions, batch_requests, batches, shed, fused,
      autograd;

  static Counters read() {
    auto& r = obs::Registry::global();
    return {r.counter("serve.cache.hits").value(),
            r.counter("serve.cache.misses").value(),
            r.counter("serve.cache.evictions").value(),
            r.counter("serve.batch.requests").value(),
            r.counter("serve.batch.executed").value(),
            r.counter("serve.resilience.shed").value(),
            r.counter("infer.queries.fused").value(),
            r.counter("infer.queries.autograd").value()};
  }
  Counters operator-(const Counters& o) const {
    return {hits - o.hits,
            misses - o.misses,
            evictions - o.evictions,
            batch_requests - o.batch_requests,
            batches - o.batches,
            shed - o.shed,
            fused - o.fused,
            autograd - o.autograd};
  }
};

/// What one client thread saw in the timed phase.
struct ClientLog {
  explicit ClientLog(std::uint64_t seed) : plain(seed), traced(seed ^ 1) {}
  void fail(std::string why) {
    if (++failed <= 5) reasons.push_back(std::move(why));
  }
  Reservoir plain;
  Reservoir traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;  ///< the first few failures
  std::vector<std::pair<std::uint64_t, std::string>> samples;
};

class ServeBench {
 public:
  ServeBench(const Args& args, ServeKind kind)
      : args_(args),
        kind_(kind),
        tiny_(args.size == Size::kTiny),
        space_(arch::cifar10_backbone()),
        perm_(args.seed, space_.num_searchable()),
        next_(args.part * kRequestsPerPart) {
    if (args_.trace) tracer_ = std::make_unique<Tracer>();
    if (kind_ == ServeKind::kHit) {
      for (int k = 0; k < kWorkingSet; ++k) {
        tails_.push_back(encoding_tail(space_.encode(perm_.at(k))));
      }
    }
  }

  Outcome run(const std::string& trace_path) {
    Outcome out;
    const auto setup_start = Clock::now();
    set_up();
    const double setup_s = seconds_between(setup_start, Clock::now());
    fill_cache();
    describe(out);

    // Warm-up: lazy set-up inside the library (pool lanes, first
    // allocations) finishes before timing. Not recorded.
    replay(/*record=*/false, tiny_ ? 0.2 : 0.3, tiny_ ? 8 : 64);

    const Counters before = Counters::read();
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    std::vector<ClientLog> logs =
        replay(/*record=*/true, tiny_ ? std::min(args_.seconds, 1.0)
                                      : args_.seconds,
               tiny_ ? 200 : 0);
    const double wall_s = seconds_between(t0, Clock::now());
    const double cpu_s = process_cpu_seconds() - cpu0;
    const Counters delta = Counters::read() - before;

    std::vector<double> plain, traced;
    for (ClientLog& log : logs) {
      out.attempted += log.attempted;
      out.add_failures(log.failed, log.reasons);
      plain.insert(plain.end(), log.plain.samples().begin(),
                   log.plain.samples().end());
      traced.insert(traced.end(), log.traced.samples().begin(),
                    log.traced.samples().end());
    }
    verify_samples(logs, out);
    fill_latency_metrics(out, args_.trace ? traced : plain,
                         out.attempted - out.failed, wall_s, cpu_s);
    out.metrics["setup_s"] = {setup_s, "s"};
    out.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    const std::uint64_t lookups = delta.hits + delta.misses;
    out.note("repeat_pct",
             format("%.2f", lookups == 0 ? 0.0
                                         : 100.0 * static_cast<double>(
                                                       delta.hits) /
                                               static_cast<double>(lookups)));
    out.note("unique_keys",
             std::to_string(kind_ == ServeKind::kHit
                                ? static_cast<std::uint64_t>(kWorkingSet)
                                : out.attempted));
    out.note("requests_timed", std::to_string(out.attempted));

    if (args_.trace) {
      fill_layers(out, delta, plain, traced);
      if (!trace_path.empty() &&
          !tracer_->write_json(trace_path, args_.workload, args_.seed)) {
        out.note("trace_file", "write failed: " + trace_path);
      }
    }
    return out;
  }

 private:
  void describe(Outcome& out) const {
    out.note("seed", std::to_string(args_.seed));
    out.note("form", kind_ == ServeKind::kHit ? "encoding" : "arch");
    out.note("clients", std::to_string(kClients));
    out.note("lanes", std::to_string(runtime::global_pool().num_threads()));
    out.note("nproc", std::to_string(online_cpus()));
    out.note("backend", service_->backend().name());
    if (const serve::ShardedLruCache* cache = service_->cache()) {
      out.note("cache_entries_at_start",
               std::to_string(cache->stats().entries) + " of " +
                   std::to_string(cache->capacity()));
    }
  }

  void set_up() {
    if (kind_ == ServeKind::kMissSurrogate) {
      const auto t0 = Clock::now();
      util::Rng rng(kEvaluatorSeed);
      evaluator_ = std::make_unique<evalnet::Evaluator>(
          space_.encoding_width(), hw_space_, rng);
      backend_ = std::make_unique<serve::SurrogateBackend>(*evaluator_);
      surrogate_s_ = seconds_between(t0, Clock::now());
    } else {
      const auto t0 = Clock::now();
      table_ = std::make_unique<arch::CostTable>(space_, hw_space_, model_);
      build_s_ = seconds_between(t0, Clock::now());
      backend_ =
          std::make_unique<serve::ExactBackend>(*table_, accel::edap_cost());
    }
    serve::CostQueryBackend* serving = backend_.get();
    if (tracer_) {
      timing_ = std::make_unique<TimingBackend>(*backend_, *tracer_);
      serving = timing_.get();
    }
    service_ = std::make_unique<serve::Service>(*serving);

    if (kind_ == ServeKind::kHit) {
      // Prime the working set through the bulk entry point (no batcher
      // deadline waits). The first answer for each key is what every later
      // hit must reproduce.
      std::vector<serve::Request> keys;
      for (int k = 0; k < kWorkingSet; ++k) {
        keys.emplace_back(space_.encode(perm_.at(k)));
      }
      const std::vector<serve::Response> first = service_->query_many(keys);
      for (std::size_t k = 0; k < first.size(); ++k) {
        primed_.push_back(
            serve::wire::response_line(static_cast<long>(k), first[k]));
      }
    }
  }

  /// A long-running server's cache is full. The miss workloads start that
  /// way: the cache is filled with placeholder entries under keys the trace
  /// never asks for (the far end of the permutation), so every miss also
  /// pays an eviction and memory does not grow with the number of requests
  /// a run completes. Not part of set-up time: a fresh server has no such
  /// entries to load.
  void fill_cache() {
    serve::ShardedLruCache* cache = service_->cache();
    if (kind_ == ServeKind::kHit || cache == nullptr) return;
    const std::uint64_t fill = cache->capacity() + cache->capacity() / 4;
    for (std::uint64_t j = 0; j < fill; ++j) {
      const arch::Architecture a = perm_.at(perm_.size() - 1 - j);
      cache->put(serve::canonical_key(space_.encode(a)), serve::Response{});
    }
  }

  /// The wire line of request `i`.
  std::string line_for(std::uint64_t i, std::size_t& key) const {
    if (kind_ == ServeKind::kHit) {
      key = mix64(args_.seed * 0x10001ULL + i) % kWorkingSet;
      return "{\"id\": " + std::to_string(i) + ", " + tails_[key];
    }
    key = 0;
    return arch_line(i, perm_.at(i));
  }

  /// answer_line taken apart into its public pieces, with a span around each.
  std::string traced_answer(const std::string& line, std::uint64_t i,
                            Tracer::Buffer& buf) {
    Span request(&buf, "request", 0, i);
    serve::wire::ParseOutcome parsed;
    {
      Span s(&buf, "wire.parse", request.id(), i);
      parsed = serve::wire::parse_request(line, space_);
    }
    if (!parsed.ok) {
      return serve::wire::error_line(parsed.request.id, parsed.error);
    }
    auto ctx = std::make_shared<RequestContext>();
    ctx->request = i;
    serve::Response response;
    {
      Span q(&buf, "service.query", request.id(), i);
      ctx->query_span = q.id();
      serve::Request req{parsed.request.encoding};
      req.pin = ctx;
      try {
        response = service_->query(req);
      } catch (const std::exception& e) {
        return serve::wire::error_line(parsed.request.id, e.what());
      }
      const double us = q.finish();
      if (ctx->backend_us >= 0.0) {
        buf.add_total("batcher.queue", us - ctx->backend_us);
      }
    }
    Span s(&buf, "wire.serialize", request.id(), i);
    return serve::wire::response_line(parsed.request.id, response);
  }

  /// Runs the closed loop on kClients threads for `seconds` (and at most
  /// `cap` requests per client when cap > 0).
  std::vector<ClientLog> replay(bool record, double seconds,
                                std::uint64_t cap) {
    std::vector<ClientLog> logs;
    for (int c = 0; c < kClients; ++c) logs.emplace_back(mix64(args_.seed + c));
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = logs[static_cast<std::size_t>(c)];
        Tracer::Buffer* buf = tracer_ ? &tracer_->buffer() : nullptr;
        for (std::uint64_t n = 0; cap == 0 || n < cap; ++n) {
          const auto now = Clock::now();
          if (now >= deadline) break;
          // Traced and untraced requests alternate, so drift over the run
          // cancels out of trace.overhead_pct.
          const bool traced = buf != nullptr && record && n % 2 == 1;
          const std::uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
          std::size_t key = 0;
          const std::string line = line_for(i, key);
          const auto t0 = Clock::now();
          const std::string answer =
              traced ? traced_answer(line, i, *buf)
                     : serve::wire::answer_line(line, space_, *service_);
          const double us = std::chrono::duration<double, std::micro>(
                                Clock::now() - t0)
                                .count();
          if (!record) continue;
          ++log.attempted;
          (traced ? log.traced : log.plain).add(us);
          if (answer.find("\"error\"") != std::string::npos) {
            log.fail("error answer: " + answer);
          } else if (kind_ == ServeKind::kHit) {
            if (!same_except_id_and_cached(answer, primed_[key])) {
              log.fail("hit differs from first answer: " + answer);
            }
          } else if (i % kSampleEvery == 0) {
            log.samples.emplace_back(i, answer);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return logs;
  }

  /// Checks an evenly spread subset of the sampled miss answers against the
  /// workload's oracle, outside the Service, the batcher and the cache.
  void verify_samples(std::vector<ClientLog>& logs, Outcome& out) {
    if (kind_ == ServeKind::kHit) return;
    std::vector<std::pair<std::uint64_t, std::string>> all;
    for (ClientLog& log : logs) {
      for (auto& s : log.samples) all.push_back(std::move(s));
    }
    std::sort(all.begin(), all.end());
    const std::size_t want = tiny_ ? 4 : 12;
    if (all.empty()) {
      out.fail("no miss answers were sampled for the oracle");
      return;
    }
    const std::size_t n = std::min(want, all.size());
    hwgen::ExhaustiveSearch exhaustive(hw_space_, model_);
    std::unique_ptr<evalnet::Evaluator> oracle_eval;
    std::unique_ptr<serve::SurrogateBackend> oracle;
    if (kind_ == ServeKind::kMissSurrogate) {
      util::Rng rng(kEvaluatorSeed);
      oracle_eval = std::make_unique<evalnet::Evaluator>(
          space_.encoding_width(), hw_space_, rng);
      oracle = std::make_unique<serve::SurrogateBackend>(*oracle_eval);
    }
    for (std::size_t k = 0; k < n; ++k) {
      const auto& [i, line] = all[k * all.size() / n];
      const arch::Architecture a = perm_.at(i);
      std::string why;
      if (kind_ == ServeKind::kMissExact) {
        const hwgen::HwSearchResult best =
            exhaustive.run(space_.lower(a), accel::edap_cost());
        why = check_answer(line, best.metrics, best.config);
      } else {
        const serve::Request req{space_.encode(a)};
        const serve::Response r = oracle->query_batch({&req, 1}).front();
        why = check_answer(line, r.metrics, r.config);
      }
      if (!why.empty()) {
        out.fail(format("request %llu: ",
                        static_cast<unsigned long long>(i)) + why);
      }
    }
    out.note("oracle_checked", std::to_string(n));
  }

  void fill_layers(Outcome& out, const Counters& d,
                   const std::vector<double>& plain,
                   const std::vector<double>& traced) {
    const Tracer& t = *tracer_;
    auto& L = out.layers;
    L["wire.parse_us"] = {t.mean_us("wire.parse"), "us"};
    L["wire.serialize_us"] = {t.mean_us("wire.serialize"), "us"};
    L["service.query_us"] = {t.mean_us("service.query"), "us"};
    const std::uint64_t lookups = d.hits + d.misses;
    if (lookups > 0) {
      L["cache.hit_pct"] = {
          100.0 * static_cast<double>(d.hits) / static_cast<double>(lookups),
          "%"};
      L["cache.evictions"] = {static_cast<double>(d.evictions), "count"};
    }
    if (d.batches > 0) {
      L["batcher.mean_batch"] = {static_cast<double>(d.batch_requests) /
                                     static_cast<double>(d.batches),
                                 "req/batch"};
      L["batcher.shed"] = {static_cast<double>(d.shed), "count"};
    }
    if (t.count("batcher.queue") > 0) {
      L["batcher.queue_us"] = {t.mean_us("batcher.queue"), "us"};
    }
    if (timing_ && timing_->calls() > 0) {
      const auto calls = static_cast<double>(timing_->calls());
      L["backend.batch_us"] = {timing_->busy_us() / calls, "us"};
      L["backend.row_us"] = {
          timing_->busy_us() / static_cast<double>(timing_->rows()), "us"};
      L["backend.calls"] = {calls, "count"};
    }
    if (table_) {
      L["costtable.build_s"] = {build_s_, "s"};
      // Exact hardware generation called directly, outside the Service.
      std::vector<arch::Architecture> archs;
      for (std::uint64_t i = 0; i < 256; ++i) archs.push_back(perm_.at(i));
      const auto t0 = Clock::now();
      double sum = 0.0;
      for (const auto& a : archs) {
        sum += table_->optimal(a, accel::edap_cost()).cost;
      }
      const double s = seconds_between(t0, Clock::now());
      L["costprovider.optimal_us"] = {
          s * 1e6 / static_cast<double>(archs.size()), "us"};
      if (!std::isfinite(sum)) out.fail("optimal() returned a non-finite cost");
    }
    if (d.fused + d.autograd > 0) {
      L["infer.fused_pct"] = {100.0 * static_cast<double>(d.fused) /
                                  static_cast<double>(d.fused + d.autograd),
                              "%"};
    }
    if (evaluator_) L["surrogate.setup_s"] = {surrogate_s_, "s"};
    const double p50_plain = percentile(plain, 0.5);
    if (p50_plain > 0.0) {
      L["trace.overhead_pct"] = {
          100.0 * (percentile(traced, 0.5) / p50_plain - 1.0), "%"};
    }
  }

  const Args& args_;
  ServeKind kind_;
  bool tiny_;
  arch::ArchSpace space_;
  hwgen::HwSearchSpace hw_space_;
  accel::CostModel model_;
  ArchPermutation perm_;
  std::vector<std::string> tails_;   ///< nasloop-hit working set
  std::vector<std::string> primed_;  ///< first answer per working-set key
  std::unique_ptr<Tracer> tracer_;
  double build_s_ = 0.0;      ///< cost table build, within set-up
  double surrogate_s_ = 0.0;  ///< evaluator + backend, within set-up
  std::unique_ptr<arch::CostTable> table_;
  std::unique_ptr<evalnet::Evaluator> evaluator_;
  std::unique_ptr<serve::CostQueryBackend> backend_;
  std::unique_ptr<TimingBackend> timing_;
  std::unique_ptr<serve::Service> service_;
  std::atomic<std::uint64_t> next_;  ///< index of the next request
};

}  // namespace

Outcome run_serve(const Args& args, ServeKind kind, const std::string& trace_path) {
  ServeBench bench(args, kind);
  return bench.run(trace_path);
}

}  // namespace perfbench
