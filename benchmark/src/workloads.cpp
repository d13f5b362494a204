#include "workloads.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "api/backend.h"
#include "api/churn.h"
#include "api/registry.h"
#include "api/sweep.h"
#include "core/fast_sim.h"
#include "core/fast_sim_crash.h"
#include "core/fast_sim_targeted.h"
#include "harness/runner.h"
#include "report/report.h"
#include "search/evaluate.h"
#include "search/genome.h"
#include "search/optimize.h"
#include "sim/engine.h"
#include "tree/shape.h"
#include "util/rng.h"

namespace bilbench {

namespace api = bil::api;
namespace harness = bil::harness;
namespace sim = bil::sim;
using harness::AdversaryKind;
using harness::AdversarySpec;

namespace {

/// Seed domain of every input the benchmark derives from --seed; disjoint
/// from the library's domains (core/seeds.h), which count up from 1.
constexpr std::uint64_t kBenchSeedDomain = 0x62656e6368ull;  // "bench"

std::uint64_t bench_seed(std::uint64_t seed, std::uint64_t index) {
  return bil::derive_seed(seed, kBenchSeedDomain, index);
}

/// Runs `fn` and adds its duration to `seconds`.
template <class Fn>
auto timed(double& seconds, Fn&& fn) {
  const std::int64_t start = now_ns();
  auto result = fn();
  seconds += seconds_between(start, now_ns());
  return result;
}

void check(bool condition, const std::string& what) {
  if (!condition) {
    throw std::runtime_error(what);
  }
}

std::uint64_t fingerprint(std::uint32_t rounds, std::uint32_t total_rounds,
                          std::uint32_t crashes, std::uint64_t deliveries,
                          std::span<const std::uint64_t> names) {
  Fnv1a hash;
  hash.add_u64(rounds);
  hash.add_u64(total_rounds);
  hash.add_u64(crashes);
  hash.add_u64(deliveries);
  hash.add_all(names);
  return hash.value();
}

std::uint64_t fingerprint(const api::RunRecord& record) {
  return fingerprint(record.rounds, record.total_rounds, record.crashes,
                     record.messages_delivered, record.names);
}

std::uint64_t fingerprint(const bil::service::ServiceMetrics& m) {
  Fnv1a hash;
  for (const std::uint64_t value :
       {m.seed, m.arrivals, m.joined, m.departed, m.instances,
        m.instance_rounds, m.messages, m.backlog_peak,
        std::uint64_t{m.horizon}, std::uint64_t{m.live_final},
        std::uint64_t{m.live_peak}, std::uint64_t{m.namespace_final},
        std::uint64_t{m.namespace_peak}, std::uint64_t{m.grows},
        std::uint64_t{m.shrinks}}) {
    hash.add_u64(value);
  }
  for (const double value :
       {m.names_per_round, m.throughput_ratio, m.density_mean, m.latency.mean,
        m.latency.median, m.latency.p99, m.latency.max, m.batch.mean}) {
    hash.add_f64(value);
  }
  return hash.value();
}

std::string adversary_name(const AdversarySpec& spec) {
  return api::adversary_info(spec.kind).name;
}

/// The untraced call inside an op span, for the workloads whose layers are
/// timed by serial probes instead of by decorators inside the call.
Call spanned(Workload& workload, std::size_t index, Trace& trace,
             const char* name) {
  const std::uint64_t op_id = trace.next_op++;
  const std::uint64_t span =
      trace.spans.begin(name, trace.workload_span, op_id);
  const Call call = workload.run(index);
  trace.spans.end(span);
  return call;
}

// ---- engine-broadcast, engine-faults ------------------------------------------

struct EngineOp {
  api::CellConfig cell;
  std::uint64_t seed = 0;
};

/// One traced engine run: the construction harness::run_renaming performs,
/// with each process, the adversary and any delay scheduler wrapped, and
/// Engine::step() driven (and timed) from here.
Call traced_engine_run(const EngineOp& op,
                       const std::shared_ptr<const bil::tree::TreeShape>& shape,
                       std::uint32_t width, Trace& trace) {
  const api::CellConfig& cell = op.cell;
  LayerStats& stats = trace.stats;
  const std::uint64_t op_id = trace.next_op++;
  const std::uint64_t op_span = trace.spans.begin(
      "engine.run:" + adversary_name(cell.adversary), trace.workload_span,
      op_id);
  const std::int64_t start = now_ns();

  harness::RunConfig config;
  config.algorithm = cell.algorithm;
  config.n = cell.n;
  config.seed = op.seed;
  config.adversary = cell.adversary;
  config.termination = cell.termination;
  std::vector<std::unique_ptr<sim::ProcessBase>> processes =
      harness::make_processes(config, shape);
  std::vector<TimedProcess*> timed_processes;
  timed_processes.reserve(processes.size());
  for (std::unique_ptr<sim::ProcessBase>& process : processes) {
    auto wrapped = std::make_unique<TimedProcess>(std::move(process));
    timed_processes.push_back(wrapped.get());
    process = std::move(wrapped);
  }
  TimedAdversary* adversary = nullptr;
  TimedScheduler* delays = nullptr;
  std::unique_ptr<sim::DeliveryScheduler> scheduler;
  if (harness::is_delay_kind(cell.adversary.kind)) {
    auto wrapped = std::make_unique<TimedScheduler>(
        harness::make_scheduler(cell.adversary, cell.n, op.seed, shape));
    delays = wrapped.get();
    scheduler = std::move(wrapped);
  } else {
    // make_scheduler's synchronous branch, with the adversary wrapped.
    std::unique_ptr<sim::Adversary> inner =
        harness::make_adversary(cell.adversary, cell.n, op.seed, shape);
    std::unique_ptr<sim::Adversary> wrapped;
    if (inner != nullptr) {
      auto timed_adversary = std::make_unique<TimedAdversary>(std::move(inner));
      adversary = timed_adversary.get();
      wrapped = std::move(timed_adversary);
    }
    scheduler = std::make_unique<sim::SynchronousScheduler>(std::move(wrapped));
  }
  sim::Engine engine(
      sim::EngineConfig{.num_processes = cell.n,
                        .max_crashes = cell.adversary.crashes,
                        .max_byzantine = cell.adversary.byzantine,
                        .num_threads = width},
      std::move(processes), std::move(scheduler));
  const double threads = engine.num_threads();

  if (delays != nullptr) {
    const std::int64_t run_start = now_ns();
    (void)engine.run();
    const std::int64_t run_end = now_ns();
    trace.spans.record("engine.run_async", op_span, op_id, run_start,
                       run_end);
    stats.async_run_ms.add(seconds_between(run_start, run_end) * 1e3);
    stats.deliver_at_ns += static_cast<double>(delays->total_ns());
    stats.deliver_at_calls += delays->calls();
  } else {
    const sim::RoundNumber cap = 16 * cell.n + 64;  // EngineConfig default
    bool running = true;
    while (running && engine.rounds_executed() < cap) {
      const std::int64_t step_start = now_ns();
      running = engine.step();
      const std::int64_t step_end = now_ns();
      const sim::RoundNumber round = engine.rounds_executed() - 1;

      // Fold the processes' own records of this round's calls.
      std::int64_t send_lo = std::numeric_limits<std::int64_t>::max();
      std::int64_t send_hi = std::numeric_limits<std::int64_t>::min();
      std::int64_t receive_lo = send_lo;
      std::int64_t receive_hi = send_hi;
      std::int64_t send_cpu = 0;
      std::int64_t receive_cpu = 0;
      std::uint64_t receive_calls = 0;
      for (const TimedProcess* process : timed_processes) {
        const TimedProcess::Call& send = process->last_send();
        if (send.round == round) {
          send_lo = std::min(send_lo, send.start_ns);
          send_hi = std::max(send_hi, send.end_ns);
          send_cpu += send.end_ns - send.start_ns;
        }
        const TimedProcess::Call& receive = process->last_receive();
        if (receive.round == round) {
          receive_lo = std::min(receive_lo, receive.start_ns);
          receive_hi = std::max(receive_hi, receive.end_ns);
          receive_cpu += receive.end_ns - receive.start_ns;
          ++receive_calls;
        }
      }
      const double step_ms = seconds_between(step_start, step_end) * 1e3;
      const double send_ms =
          send_hi > send_lo ? seconds_between(send_lo, send_hi) * 1e3 : 0.0;
      const double receive_ms =
          receive_hi > receive_lo ? seconds_between(receive_lo, receive_hi) * 1e3
                                  : 0.0;
      const TimedAdversary::Busy busy =
          adversary != nullptr ? adversary->take() : TimedAdversary::Busy{};
      const double adversary_ms = static_cast<double>(busy.ns) * 1e-6;

      stats.step_ms.add(step_ms);
      stats.send_phase_ms.add(send_ms);
      stats.receive_phase_ms.add(receive_ms);
      stats.residue_ms.add(step_ms - send_ms - adversary_ms - receive_ms);
      if (adversary != nullptr) {
        stats.adversary_ms.add(adversary_ms);
      }
      stats.on_send_cpu_ms.add(static_cast<double>(send_cpu) * 1e-6);
      stats.on_receive_cpu_ms.add(static_cast<double>(receive_cpu) * 1e-6);
      stats.receive_cpu_ms += static_cast<double>(receive_cpu) * 1e-6;
      stats.receive_capacity_ms += threads * receive_ms;
      stats.on_receive_calls += receive_calls;

      const sim::RoundTraffic& traffic = engine.metrics().per_round.back();
      const std::uint64_t round_span = trace.spans.record(
          "round", op_span, op_id, step_start, step_end);
      trace.spans.count(round_span, "on_send_cpu_ns",
                        static_cast<double>(send_cpu));
      trace.spans.count(round_span, "on_receive_cpu_ns",
                        static_cast<double>(receive_cpu));
      trace.spans.count(round_span, "on_receive_calls",
                        static_cast<double>(receive_calls));
      trace.spans.count(round_span, "deliveries",
                        static_cast<double>(traffic.deliveries));
      trace.spans.count(round_span, "bytes",
                        static_cast<double>(traffic.bytes_delivered));
      if (send_hi > send_lo) {
        trace.spans.record("send", round_span, op_id, send_lo, send_hi);
      }
      if (busy.ns > 0) {
        trace.spans.record("adversary", round_span, op_id, busy.start_ns,
                           busy.end_ns);
      }
      if (receive_hi > receive_lo) {
        trace.spans.record("receive", round_span, op_id, receive_lo,
                           receive_hi);
      }
    }
  }

  const sim::RunResult result = engine.result();
  const std::int64_t validate_start = now_ns();
  sim::validate_renaming(result, cell.n);
  const std::int64_t validate_end = now_ns();
  trace.spans.record("validate_renaming", op_span, op_id, validate_start,
                     validate_end);
  stats.validate_ms.add(seconds_between(validate_start, validate_end) * 1e3);
  stats.deliveries_per_round.add(
      static_cast<double>(result.metrics.total_deliveries) / result.rounds);
  stats.bytes_per_round.add(
      static_cast<double>(result.metrics.total_bytes_delivered) /
      result.rounds);

  // The RunRecord EngineBackend::run would have returned.
  std::vector<std::uint64_t> names;
  names.reserve(result.outcomes.size());
  for (const sim::ProcessOutcome& outcome : result.outcomes) {
    names.push_back(outcome.crashed ? 0 : outcome.name);
  }
  const std::uint64_t print =
      fingerprint(result.last_decide_round() + 1, result.rounds,
                  engine.crash_count(), result.metrics.total_deliveries, names);
  const std::int64_t end = now_ns();
  trace.spans.end(op_span);
  return Call{.seconds = seconds_between(start, end),
              .ops = 1,
              .fingerprint = print};
}

class EngineWorkload final : public Workload {
 public:
  EngineWorkload(bool faults, std::uint32_t width)
      : faults_(faults), backend_(nullptr, width), width_(width) {}

  void prepare(std::uint64_t seed, Scale scale) override {
    const bool full = scale == Scale::kFull;
    ops_.clear();
    const std::uint32_t n = faults_ ? (full ? 512 : 128) : (full ? 1024 : 256);
    const auto add = [&](const AdversarySpec& adversary, int copies) {
      for (int c = 0; c < copies; ++c) {
        EngineOp op;
        op.cell.n = n;
        op.cell.adversary = adversary;
        op.cell.backend = api::BackendKind::kEngine;
        op.seed = bench_seed(seed, ops_.size());
        ops_.push_back(op);
      }
    };
    if (!faults_) {
      add({}, full ? 16 : 2);
    } else {
      // Budgets scale with n: n/32 crashes, n/16 Byzantine senders.
      const int copies = full ? 4 : 1;
      add({.kind = AdversaryKind::kEager, .crashes = n / 32, .per_round = 4},
          copies);
      add({.kind = AdversaryKind::kTargetedWinner,
           .crashes = n / 32,
           .per_round = 2},
          copies);
      add({.kind = AdversaryKind::kByzantineLiar, .byzantine = n / 16},
          full ? 2 : 1);
      add({.kind = AdversaryKind::kBoundedDelay, .delay = {.max_delay = 4}},
          copies);
    }
    shape_ = bil::tree::TreeShape::make(n);
  }

  std::size_t pass_size() const override { return ops_.size(); }

  Call run(std::size_t index) override {
    const EngineOp& op = ops_.at(index);
    Call call{.ops = 1};
    const api::RunRecord record =
        timed(call.seconds, [&] { return backend_.run(op.cell, op.seed); });
    call.fingerprint = fingerprint(record);
    return call;
  }

  Call run_traced(std::size_t index, Trace& trace) override {
    const EngineOp& op = ops_.at(index);
    return traced_engine_run(op, shape_, width_, trace);
  }

  std::optional<std::uint64_t> reference(std::size_t index) override {
    if (faults_) {
      return std::nullopt;
    }
    // Crash-free: the fast simulator must reproduce the engine's run.
    const EngineOp& op = ops_.at(index);
    return fingerprint(api::FastSimBackend().run(op.cell, op.seed));
  }

 private:
  bool faults_;
  api::EngineBackend backend_;
  std::uint32_t width_;
  std::vector<EngineOp> ops_;
  /// The traced path builds processes over it, as run_renaming would.
  std::shared_ptr<const bil::tree::TreeShape> shape_;
};

// ---- fastsim-scale ------------------------------------------------------------

std::uint64_t fingerprint_sweep(const api::SweepResult& result) {
  Fnv1a hash;
  for (const api::CellSummary& cell : result.cells) {
    for (const api::RunRecord& record : cell.runs) {
      hash.add_u64(fingerprint(record));
    }
  }
  return hash.value();
}

class FastSimWorkload final : public Workload {
 public:
  explicit FastSimWorkload(std::uint32_t width) : width_(width) {}

  void prepare(std::uint64_t seed, Scale scale) override {
    const bool full = scale == Scale::kFull;
    const std::uint32_t big = full ? 1u << 16 : 256;
    const std::uint32_t mid = full ? 1u << 15 : 256;
    const std::uint32_t seeds = full ? 8 : 2;
    const std::uint32_t budget = full ? 64 : 8;
    specs_.clear();
    const auto add = [&](std::uint32_t n, const AdversarySpec& adversary) {
      api::ExperimentSpec spec;
      spec.n_values = {n};
      spec.adversaries = {adversary};
      spec.seeds = seeds;
      spec.seed_base = bench_seed(seed, specs_.size());
      spec.backend = api::BackendKind::kFastSim;
      spec.threads = width_;
      spec.keep_runs = true;
      specs_.push_back(spec);
    };
    add(big, {});
    // Alternating subsets keep the eager cell at two delivery classes per
    // crash round; random-half bursts at this size realize too many.
    add(mid, {.kind = AdversaryKind::kEager,
              .crashes = budget,
              .per_round = 4,
              .subset = sim::SubsetPolicy::kAlternating});
    add(mid, {.kind = AdversaryKind::kTargetedWinner,
              .crashes = budget,
              .per_round = 2});
    targeted_shape_ = bil::tree::TreeShape::make(mid);
  }

  std::size_t pass_size() const override { return specs_.size(); }

  Call run(std::size_t index) override {
    const api::SweepRunner runner(specs_.at(index));
    Call call;
    const api::SweepResult result =
        timed(call.seconds, [&] { return runner.run(); });
    call.ops = result.total_runs;
    call.fingerprint = fingerprint_sweep(result);
    return call;
  }

  Call run_traced(std::size_t index, Trace& trace) override {
    return spanned(*this, index, trace, "SweepRunner::run");
  }

  void probe(Trace& trace) override {
    LayerStats& stats = trace.stats;
    const api::FastSimBackend backend;
    for (const api::ExperimentSpec& spec : specs_) {
      const std::uint64_t op_id = trace.next_op++;
      const std::uint64_t op_span =
          trace.spans.begin("serial Backend::run", trace.workload_span, op_id);
      const api::SweepRunner runner(spec);
      const api::CellConfig& cell = runner.cells().front();
      Fnv1a serial;
      for (std::uint32_t k = 0; k < spec.seeds; ++k) {
        const std::uint64_t seed = api::cell_run_seed(spec, 0, k);
        double seconds = 0.0;
        const api::RunRecord record =
            timed(seconds, [&] { return backend.run(cell, seed); });
        stats.backend_run_ms.add(seconds * 1e3);
        stats.serial_run_ms += seconds * 1e3;
        serial.add_u64(fingerprint(record));
        if (k == 0) {
          check(core_call(cell, seed, stats) == record.names,
                "fast-sim core call disagrees with Backend::run (" +
                    adversary_name(cell.adversary) + ")");
        }
      }
      trace.spans.end(op_span);
      double sweep_seconds = 0.0;
      const api::SweepResult result =
          timed(sweep_seconds, [&] { return runner.run(); });
      stats.sweep_capacity_ms += spec.threads * sweep_seconds * 1e3;
      check(serial.value() == fingerprint_sweep(result),
            "serial Backend::run results differ from SweepRunner::run");
    }
  }

 private:
  /// One serial call of the core fast simulator FastSimBackend::run uses for
  /// this cell, with the adversary wrapped. Returns the names it decided.
  std::vector<std::uint64_t> core_call(const api::CellConfig& cell,
                                       std::uint64_t seed, LayerStats& stats) {
    const bil::core::PathPolicy policy =
        api::algorithm_info(cell.algorithm).policy;
    double seconds = 0.0;
    if (cell.adversary.kind == AdversaryKind::kNone) {
      const bil::core::FastSimResult result = timed(seconds, [&] {
        return bil::core::run_fast_sim(
            {.n = cell.n, .seed = seed, .policy = policy});
      });
      stats.fastsim_crash_free_ms.add(seconds * 1e3);
      return result.names;
    }
    const bool targeted = cell.adversary.kind == AdversaryKind::kTargetedWinner;
    TimedAdversary adversary(harness::make_adversary(
        cell.adversary, cell.n, seed,
        targeted ? targeted_shape_ : nullptr));
    const bil::core::CrashFastSimOptions options{
        .n = cell.n,
        .seed = seed,
        .policy = policy,
        .max_crashes = cell.adversary.crashes};
    const bil::core::CrashFastSimResult result = timed(seconds, [&] {
      return targeted
                 ? bil::core::run_fast_sim_targeted(options, &adversary)
                 : bil::core::run_fast_sim_crash(options, &adversary);
    });
    (targeted ? stats.fastsim_targeted_ms : stats.fastsim_eager_ms)
        .add(seconds * 1e3);
    stats.fastsim_adversary_ms += static_cast<double>(adversary.total_ns()) * 1e-6;
    stats.fastsim_adversarial_call_ms += seconds * 1e3;
    return result.names;
  }

  std::uint32_t width_;
  std::vector<api::ExperimentSpec> specs_;
  /// The targeted adversary's decode logic measures depths against it.
  std::shared_ptr<const bil::tree::TreeShape> targeted_shape_;
};

// ---- service-churn ------------------------------------------------------------

class ServiceWorkload final : public Workload {
 public:
  explicit ServiceWorkload(std::uint32_t width) : width_(width) {}

  void prepare(std::uint64_t seed, Scale scale) override {
    const bool full = scale == Scale::kFull;
    spec_ = api::ExperimentSpec{};
    spec_.n_values = {full ? 1u << 15 : 256};
    spec_.seeds = full ? 8 : 2;
    spec_.seed_base = bench_seed(seed, 0);
    spec_.threads = width_;
    spec_.keep_runs = true;
    spec_.churn.profile = bil::service::ChurnProfile::kPoisson;
    spec_.churn.horizon_rounds = full ? 256 : 64;
  }

  std::size_t pass_size() const override { return 1; }

  Call run(std::size_t /*index*/) override {
    const api::SweepRunner runner(spec_);
    Call call;
    const api::SweepResult result =
        timed(call.seconds, [&] { return runner.run(); });
    Fnv1a hash;
    for (const bil::service::ServiceMetrics& metrics :
         result.cells.front().churn.runs) {
      call.ops += metrics.instances;
      hash.add_u64(fingerprint(metrics));
    }
    call.fingerprint = hash.value();
    return call;
  }

  Call run_traced(std::size_t index, Trace& trace) override {
    return spanned(*this, index, trace, "SweepRunner::run");
  }

  void probe(Trace& trace) override {
    LayerStats& stats = trace.stats;
    const api::SweepRunner runner(spec_);
    const api::CellConfig& cell = runner.cells().front();
    Fnv1a serial;
    for (std::uint32_t k = 0; k < spec_.seeds; ++k) {
      const std::uint64_t op_id = trace.next_op++;
      const std::uint64_t span = trace.spans.begin(
          "RenamingService::run", trace.workload_span, op_id);
      bil::service::ServiceConfig config;
      config.churn = spec_.churn;
      config.n = cell.n;
      config.seed = api::cell_run_seed(spec_, 0, k);
      const double instances_before = stats.instance_ms.sum();
      bil::service::RenamingService service(
          config,
          timed_instance_runner(api::make_instance_runner(cell, 1), stats));
      double seconds = 0.0;
      const bil::service::ServiceMetrics metrics =
          timed(seconds, [&] { return service.run(); });
      trace.spans.end(span);
      stats.driver_self_ms.add(seconds * 1e3 -
                               (stats.instance_ms.sum() - instances_before));
      stats.serial_run_ms += seconds * 1e3;
      serial.add_u64(fingerprint(metrics));
    }
    const Call sweep = run(0);
    stats.sweep_capacity_ms += spec_.threads * sweep.seconds * 1e3;
    check(serial.value() == sweep.fingerprint,
          "wrapped RenamingService runs differ from the churn sweep");
  }

 private:
  std::uint32_t width_;
  api::ExperimentSpec spec_;
};

// ---- search-hunt --------------------------------------------------------------

class SearchWorkload final : public Workload {
 public:
  void prepare(std::uint64_t seed, Scale scale) override {
    const bool full = scale == Scale::kFull;
    config_ = bil::search::SearchConfig{};
    config_.n = full ? 1u << 13 : 256;
    config_.run_seed = bench_seed(seed, 0);
    config_.budget = 8;
    config_.evaluations = full ? 48 : 24;
    config_.restarts = full ? 4 : 2;
    config_.search_seed = bench_seed(seed, 1);
    config_.eval.fast_sim_min_n = 0;
    genomes_ = random_genomes(bench_seed(seed, 2), full ? 64 : 8);
  }

  std::size_t pass_size() const override { return 1; }

  Call run(std::size_t /*index*/) override {
    Call call;
    const bil::search::SearchResult result = timed(call.seconds, [&] {
      return bil::search::run_search(bil::search::OptimizerKind::kHillClimb,
                                     config_);
    });
    check(result.evaluations == config_.evaluations,
          "run_search spent a different evaluation budget");
    call.ops = result.evaluations;
    Fnv1a hash;
    hash.add_text(bil::search::to_json(result.best));
    hash.add_f64(result.best_score);
    hash.add_u64(result.evaluations);
    call.fingerprint = hash.value();
    return call;
  }

  Call run_traced(std::size_t index, Trace& trace) override {
    const Call call = spanned(*this, index, trace, "search::run_search");
    trace.stats.search_ms += call.seconds * 1e3;
    trace.stats.search_evals += call.ops;
    return call;
  }

  void probe(Trace& trace) override {
    const std::uint64_t op_id = trace.next_op++;
    const std::uint64_t op_span =
        trace.spans.begin("search::evaluate set", trace.workload_span, op_id);
    for (const bil::search::ScheduleGenome& genome : genomes_) {
      const std::int64_t start = now_ns();
      const bil::search::EvalOutcome outcome =
          bil::search::evaluate(genome, config_.eval);
      const std::int64_t end = now_ns();
      trace.spans.record("search::evaluate", op_span, op_id, start, end);
      check(outcome.completed, "an evaluated genome did not complete");
      trace.stats.eval_ms.add(seconds_between(start, end) * 1e3);
      trace.stats.fast_path_evals += outcome.fast_path ? 1 : 0;
    }
    trace.spans.end(op_span);
  }

 private:
  /// Schedule genomes drawn the way the optimizer draws its restarts: 1 to
  /// budget crash genes, rounds within the default horizon, any victim rank
  /// and subset policy.
  std::vector<bil::search::ScheduleGenome> random_genomes(
      std::uint64_t seed, std::uint32_t count) const {
    constexpr sim::SubsetPolicy kSubsets[] = {
        sim::SubsetPolicy::kSilent, sim::SubsetPolicy::kAlternating,
        sim::SubsetPolicy::kRandomHalf, sim::SubsetPolicy::kAll};
    const sim::RoundNumber horizon = bil::search::default_horizon(
        config_.algorithm, config_.n, config_.budget);
    bil::Rng rng(seed);
    std::vector<bil::search::ScheduleGenome> genomes(count);
    for (bil::search::ScheduleGenome& genome : genomes) {
      genome.n = config_.n;
      genome.run_seed = config_.run_seed;
      genome.budget = config_.budget;
      const std::uint64_t genes = rng.between(1, config_.budget);
      for (std::uint64_t g = 0; g < genes; ++g) {
        genome.crashes.push_back(
            {.round = static_cast<sim::RoundNumber>(rng.below(horizon)),
             .victim_rank = static_cast<std::uint32_t>(rng.below(config_.n)),
             .subset = kSubsets[rng.below(4)]});
      }
    }
    return genomes;
  }

  bil::search::SearchConfig config_;
  std::vector<bil::search::ScheduleGenome> genomes_;
};

// ---- report-ci ----------------------------------------------------------------

/// The ci preset, or at toy scale its points with n <= 64 and no claims
/// (the claim bands are calibrated on the full grid).
bil::report::PresetSpec ci_preset(Scale scale) {
  bil::report::PresetSpec preset = bil::report::find_preset("ci");
  if (scale == Scale::kFull) {
    return preset;
  }
  std::vector<bil::report::SeriesSpec> kept;
  for (bil::report::SeriesSpec series : preset.series) {
    std::erase_if(series.n_values, [](std::uint32_t n) { return n > 64; });
    if (!series.n_values.empty()) {
      kept.push_back(std::move(series));
    }
  }
  preset.series = std::move(kept);
  preset.claims.clear();
  return preset;
}

class ReportWorkload final : public Workload {
 public:
  explicit ReportWorkload(std::uint32_t width) { options_.threads = width; }

  // The ci preset is the checked-in grid CI gates on; its claim bands are
  // calibrated on its own seeds, so the input does not vary with --seed.
  void prepare(std::uint64_t /*seed*/, Scale scale) override {
    preset_ = ci_preset(scale);
  }

  std::size_t pass_size() const override { return 1; }

  Call run(std::size_t /*index*/) override {
    Call call{.ops = 1};
    const bil::report::PresetReport report = timed(call.seconds, [&] {
      return bil::report::run_preset(preset_, options_);
    });
    for (const bil::report::ClaimResult& claim : report.claims) {
      check(claim.pass, "ci claim " + claim.spec.name + " is not PASS (" +
                            claim.measured + ")");
    }
    std::ostringstream json;
    bil::report::Report{.presets = {report}}.write_json(json);
    Fnv1a hash;
    hash.add_text(json.str());
    call.fingerprint = hash.value();
    return call;
  }

  Call run_traced(std::size_t index, Trace& trace) override {
    const Call call = spanned(*this, index, trace, "report::run_preset");
    trace.stats.preset_ms.add(call.seconds * 1e3);
    return call;
  }

  void probe(Trace& trace) override {
    const std::uint64_t op_id = trace.next_op++;
    const std::uint64_t op_span =
        trace.spans.begin("series alone", trace.workload_span, op_id);
    double series_total_ms = 0.0;
    for (const bil::report::SeriesSpec& series : preset_.series) {
      bil::report::PresetSpec alone = preset_;
      alone.series = {series};
      alone.claims.clear();
      const std::int64_t start = now_ns();
      (void)bil::report::run_preset(alone, options_);
      const std::int64_t end = now_ns();
      trace.spans.record("run_preset:" + series.label, op_span, op_id, start,
                         end);
      trace.stats.series_ms.add(seconds_between(start, end) * 1e3);
      series_total_ms += seconds_between(start, end) * 1e3;
    }
    trace.spans.end(op_span);
    trace.stats.claims_self_ms.add(trace.stats.preset_ms.mean() -
                                   series_total_ms);
  }

 private:
  bil::report::RunOptions options_;
  bil::report::PresetSpec preset_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "engine-broadcast", "engine-faults", "fastsim-scale",
      "service-churn",    "search-hunt",   "report-ci"};
  return names;
}

std::vector<std::string> probe_unused_layers(LayerStats& stats,
                                             std::uint32_t width) {
  // Every other workload at toy size, traced, into scratch stats; a layer
  // group is copied over only when the workload's own calls left it empty.
  Trace scratch;
  for (const std::string& name : workload_names()) {
    const std::unique_ptr<Workload> workload = make_workload(name, width);
    workload->prepare(1, Scale::kToy);
    for (std::size_t i = 0; i < workload->pass_size(); ++i) {
      (void)workload->run_traced(i, scratch);
    }
    workload->probe(scratch);
  }
  const LayerStats& toy = scratch.stats;
  std::vector<std::string> probed;
  if (stats.step_ms.empty()) {
    probed.push_back("engine step");
    stats.step_ms = toy.step_ms;
    stats.send_phase_ms = toy.send_phase_ms;
    stats.receive_phase_ms = toy.receive_phase_ms;
    stats.residue_ms = toy.residue_ms;
    stats.receive_cpu_ms = toy.receive_cpu_ms;
    stats.receive_capacity_ms = toy.receive_capacity_ms;
    stats.on_send_cpu_ms = toy.on_send_cpu_ms;
    stats.on_receive_cpu_ms = toy.on_receive_cpu_ms;
    stats.on_receive_calls = toy.on_receive_calls;
    stats.deliveries_per_round = toy.deliveries_per_round;
    stats.bytes_per_round = toy.bytes_per_round;
    stats.validate_ms = toy.validate_ms;
  }
  if (stats.adversary_ms.empty()) {
    probed.push_back("adversary");
    stats.adversary_ms = toy.adversary_ms;
  }
  if (stats.async_run_ms.empty()) {
    probed.push_back("async engine");
    stats.async_run_ms = toy.async_run_ms;
    stats.deliver_at_ns = toy.deliver_at_ns;
    stats.deliver_at_calls = toy.deliver_at_calls;
  }
  if (stats.fastsim_crash_free_ms.empty()) {
    probed.push_back("fast sims");
    stats.fastsim_crash_free_ms = toy.fastsim_crash_free_ms;
    stats.fastsim_eager_ms = toy.fastsim_eager_ms;
    stats.fastsim_targeted_ms = toy.fastsim_targeted_ms;
    stats.fastsim_adversary_ms = toy.fastsim_adversary_ms;
    stats.fastsim_adversarial_call_ms = toy.fastsim_adversarial_call_ms;
  }
  if (stats.backend_run_ms.empty()) {
    probed.push_back("serial sweeps");
    stats.backend_run_ms = toy.backend_run_ms;
    stats.serial_run_ms = toy.serial_run_ms;
    stats.sweep_capacity_ms = toy.sweep_capacity_ms;
  }
  if (stats.instance_ms.empty()) {
    probed.push_back("service");
    stats.instance_ms = toy.instance_ms;
    stats.batch = toy.batch;
    stats.driver_self_ms = toy.driver_self_ms;
  }
  if (stats.eval_ms.empty()) {
    probed.push_back("search");
    stats.eval_ms = toy.eval_ms;
    stats.fast_path_evals = toy.fast_path_evals;
    stats.search_ms = toy.search_ms;
    stats.search_evals = toy.search_evals;
  }
  if (stats.preset_ms.empty()) {
    probed.push_back("report");
    stats.preset_ms = toy.preset_ms;
    stats.series_ms = toy.series_ms;
    stats.claims_self_ms = toy.claims_self_ms;
  }
  return probed;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint32_t width) {
  if (name == "engine-broadcast" || name == "engine-faults") {
    return std::make_unique<EngineWorkload>(name == "engine-faults", width);
  }
  if (name == "fastsim-scale") {
    return std::make_unique<FastSimWorkload>(width);
  }
  if (name == "service-churn") {
    return std::make_unique<ServiceWorkload>(width);
  }
  if (name == "search-hunt") {
    return std::make_unique<SearchWorkload>();
  }
  if (name == "report-ci") {
    return std::make_unique<ReportWorkload>(width);
  }
  std::string known;
  for (const std::string& workload : workload_names()) {
    known += (known.empty() ? "" : "|") + workload;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) +
                              "' (expected " + known + ")");
}

}  // namespace bilbench
