// The cosearch workload: a reduced-size, fixed-seed DANCE co-exploration.
//
// Set-up builds the cost table, generates the evaluator's ground-truth
// dataset and pre-trains the evaluator. The timed phase then runs
// search::DanceSearch::run once per search seed, in sequence, until the time
// is up; a request is one complete run. The traced run pairs every search
// seed: once untraced, once traced with the op profiler on.
#include <cmath>
#include <memory>
#include <optional>

#include "accel/cost_function.h"
#include "arch/cost_table.h"
#include "evalnet/dataset.h"
#include "evalnet/evaluator.h"
#include "evalnet/trainer.h"
#include "hwgen/exhaustive.h"
#include "runtime/profiler.h"
#include "runtime/thread_pool.h"
#include "search/dance.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dance;

/// Problem size of one workload run.
struct CoSearchSize {
  int task_train;
  int task_val;
  int dataset;
  int train_epochs;
  int search_epochs;
  int warmup_epochs;
  int retrain_epochs;
  int max_runs;  ///< 0 = until the time is up
};

constexpr CoSearchSize kFull{768, 256, 600, 4, 2, 1, 2, 0};
constexpr CoSearchSize kTiny{256, 128, 120, 1, 1, 0, 1, 2};

/// Profiler rows reported per traced search run.
constexpr std::pair<const char*, const char*> kProfilerRows[] = {
    {"dance.arch_step", "profiler.dance.arch_step_ms"},
    {"dance.weight_step", "profiler.dance.weight_step_ms"},
    {"dance.retrain", "profiler.dance.retrain_ms"},
    {"tensor.matmul", "profiler.tensor.matmul_ms"},
    {"tensor.matmul.bwd", "profiler.tensor.matmul.bwd_ms"},
};

class CoSearchBench {
 public:
  explicit CoSearchBench(const Args& args)
      : args_(args),
        size_(args.size == Size::kTiny ? kTiny : kFull),
        space_(arch::cifar10_backbone()) {
    if (args_.trace) tracer_ = std::make_unique<Tracer>();
  }

  Outcome run(const std::string& trace_path) {
    Outcome out;
    Tracer::Buffer* buf = tracer_ ? &tracer_->buffer() : nullptr;
    const auto setup_start = Clock::now();
    set_up(buf);
    const double setup_s = seconds_between(setup_start, Clock::now());
    out.note("seed", std::to_string(args_.seed));
    out.note("form", "search");
    out.note("lanes", std::to_string(runtime::global_pool().num_threads()));
    out.note("nproc", std::to_string(online_cpus()));
    out.note("evaluator_samples", std::to_string(size_.dataset));

    net_config_.input_dim = task_->config.input_dim;
    net_config_.num_classes = task_->config.num_classes;
    net_config_.num_blocks = space_.num_searchable();

    std::vector<double> plain_us, traced_us;
    std::vector<search::SearchOutcome> outcomes;
    if (tracer_) runtime::profiler_reset();
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args_.seconds));
    for (int k = 0; size_.max_runs == 0 || k < size_.max_runs; ++k) {
      if (Clock::now() >= deadline && k > 0) break;
      const std::uint64_t search_seed =
          mix64(args_.seed * 7919 + (args_.part << 32) + k);
      if (!tracer_) {
        outcomes.push_back(search(search_seed, nullptr, plain_us));
        continue;
      }
      // The same seed untraced and traced, in alternating order.
      for (const bool traced : {k % 2 == 1, k % 2 == 0}) {
        runtime::set_profiling_enabled(traced);
        outcomes.push_back(
            search(search_seed, traced ? buf : nullptr,
                   traced ? traced_us : plain_us));
      }
      runtime::set_profiling_enabled(false);
    }
    const double wall_s = seconds_between(start, Clock::now());
    const double cpu_s = process_cpu_seconds() - cpu0;

    out.attempted = outcomes.size();
    verify(outcomes, out);
    std::vector<double> all = plain_us;
    all.insert(all.end(), traced_us.begin(), traced_us.end());
    fill_latency_metrics(out, all, out.attempted - out.failed, wall_s, cpu_s);
    out.metrics["setup_s"] = {setup_s, "s"};
    out.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    out.note("search_seeds", std::to_string(plain_us.size()));

    if (tracer_) {
      auto& L = out.layers;
      L["costtable.build_s"] = {build_s_, "s"};
      L["evalnet.dataset_s"] = {dataset_s_, "s"};
      L["evalnet.train_s"] = {train_s_, "s"};
      L["search.run_s"] = {tracer_->mean_us("search.run") * 1e-6, "s"};
      const double runs = static_cast<double>(traced_us.size());
      for (const auto& [op, stats] : runtime::profiler_snapshot()) {
        for (const auto& [row, metric] : kProfilerRows) {
          if (op == row) L[metric] = {stats.total_ms / runs, "ms"};
        }
      }
      for (const auto& [row, metric] : kProfilerRows) {
        if (!L.contains(metric)) L[metric] = {0.0, "ms"};
      }
      const double p50_plain = percentile(plain_us, 0.5);
      L["trace.overhead_pct"] = {
          100.0 * (percentile(traced_us, 0.5) / p50_plain - 1.0), "%"};
      if (!trace_path.empty() &&
          !tracer_->write_json(trace_path, "cosearch", args_.seed)) {
        out.note("trace_file", "write failed: " + trace_path);
      }
    }
    return out;
  }

 private:
  /// Set-up: everything the search needs, built from nothing.
  void set_up(Tracer::Buffer* buf) {
    {
      const auto t0 = Clock::now();
      Span s(buf, "costtable.build", 0, 0);
      table_ = std::make_unique<arch::CostTable>(space_, hw_space_, model_);
      build_s_ = seconds_between(t0, Clock::now());
    }
    data::SyntheticTaskConfig cfg;
    cfg.train_samples = size_.task_train;
    cfg.val_samples = size_.task_val;
    cfg.seed = mix64(args_.seed ^ 0x7a5cULL);
    task_.emplace(data::make_synthetic_task(cfg));

    util::Rng rng(mix64(args_.seed ^ 0xe7a1ULL));
    evaluator_ = std::make_unique<evalnet::Evaluator>(space_.encoding_width(),
                                                      hw_space_, rng);
    evalnet::EvaluatorDataset ds;
    {
      const auto t0 = Clock::now();
      Span s(buf, "evalnet.dataset", 0, 0);
      ds = evalnet::generate_evaluator_dataset(*table_, accel::edap_cost(),
                                               size_.dataset, rng);
      dataset_s_ = seconds_between(t0, Clock::now());
    }
    const auto [train, val] = evalnet::split_dataset(ds, 0.85);
    {
      const auto t0 = Clock::now();
      Span s(buf, "evalnet.train", 0, 0);
      evalnet::TrainOptions hw_opts;
      hw_opts.epochs = size_.train_epochs;
      hw_opts.lr = 0.05F;
      (void)evalnet::train_hwgen_net(evaluator_->hwgen_net(), train, val, hw_opts);
      evalnet::TrainOptions cost_opts;
      cost_opts.epochs = size_.train_epochs;
      cost_opts.lr = 4e-3F;
      (void)evalnet::train_cost_net(evaluator_->cost_net(), train, val, cost_opts);
      train_s_ = seconds_between(t0, Clock::now());
    }
  }

  search::SearchOutcome search(std::uint64_t seed, Tracer::Buffer* buf,
                               std::vector<double>& times_us) {
    search::DanceOptions opts;
    opts.search_epochs = size_.search_epochs;
    opts.warmup_epochs = size_.warmup_epochs;
    opts.retrain.epochs = size_.retrain_epochs;
    opts.lambda2 = 2.5F;
    opts.seed = seed;
    const auto t0 = Clock::now();
    Span span(buf, "search.run", 0, seed);
    search::DanceSearch dance(*task_, *table_, *evaluator_, net_config_, opts);
    search::SearchOutcome outcome = dance.run();
    span.finish();
    times_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());

    return outcome;
  }

  /// Oracle: the hardware of each outcome must be what exhaustive generation
  /// through the analytical cost model (not the cost table) picks for the
  /// derived architecture; metrics and accuracy must be finite.
  void verify(const std::vector<search::SearchOutcome>& outcomes, Outcome& out) {
    hwgen::ExhaustiveSearch exhaustive(hw_space_, model_);
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
      const search::SearchOutcome& o = outcomes[k];
      const hwgen::HwSearchResult best =
          exhaustive.run(space_.lower(o.architecture), accel::edap_cost());
      if (!(best.config == o.hardware)) {
        out.fail(format("run %zu: hardware %s, exhaustive picks %s", k,
                        o.hardware.to_string().c_str(),
                        best.config.to_string().c_str()));
      } else if (!std::isfinite(o.metrics.latency_ms) ||
                 !std::isfinite(o.metrics.energy_mj) ||
                 !std::isfinite(o.metrics.area_mm2) ||
                 !std::isfinite(o.val_accuracy_pct)) {
        out.fail(format("run %zu: non-finite metrics or accuracy", k));
      }
    }
  }

  const Args& args_;
  CoSearchSize size_;
  arch::ArchSpace space_;
  hwgen::HwSearchSpace hw_space_;
  accel::CostModel model_;
  nas::SuperNetConfig net_config_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<arch::CostTable> table_;
  std::optional<data::SyntheticTask> task_;
  std::unique_ptr<evalnet::Evaluator> evaluator_;
  double build_s_ = 0.0;
  double dataset_s_ = 0.0;
  double train_s_ = 0.0;
};

}  // namespace

Outcome run_cosearch(const Args& args, const std::string& trace_path) {
  CoSearchBench bench(args);
  return bench.run(trace_path);
}

}  // namespace perfbench
