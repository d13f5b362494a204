// Per-layer timing taken from outside each layer.
//
// Nothing here reaches into the library: every number is the duration of a
// call into a layer's public function, or of a call the library makes into
// an object the benchmark handed it. The decorators below wrap what the
// public factories return (harness::make_processes, make_adversary,
// make_scheduler, api::make_instance_runner), forward every call unchanged
// and record when it ran. Each TimedProcess keeps its own accumulators, so
// tracing stays race-free when the engine runs processes on several
// threads; the benchmark folds them after each Engine::step() returns.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "service/service.h"
#include "sim/adversary.h"
#include "sim/process.h"
#include "sim/scheduler.h"

namespace bilbench {

/// Nanoseconds on the steady clock since the first call.
[[nodiscard]] std::int64_t now_ns();

/// Seconds between two now_ns() readings.
[[nodiscard]] inline double seconds_between(std::int64_t start,
                                            std::int64_t end) {
  return static_cast<double>(end - start) * 1e-9;
}

/// FNV-1a over the little-endian bytes of each value added.
class Fnv1a {
 public:
  void add_u64(std::uint64_t value);
  void add_f64(double value);
  void add_text(std::string_view text);
  void add_all(std::span<const std::uint64_t> values);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// A list of measurements of one quantity.
struct Samples {
  std::vector<double> values;

  void add(double value) { values.push_back(value); }
  [[nodiscard]] bool empty() const noexcept { return values.empty(); }
  [[nodiscard]] double sum() const;
  /// Each statistic is 0 when there are no samples.
  [[nodiscard]] double mean() const;
  [[nodiscard]] double median() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
};

/// The highest percentile with at least ten samples beyond it (choosing
/// from 99.9, 99, 95, 90, 75 and 50), or the median when there are fewer
/// than twenty samples.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t count = 0;
};
[[nodiscard]] Tail tail_of(const Samples& samples);

/// Spans kept in memory and written as JSONL when the run ends. Parents
/// nest workload > op > round > phase; per-process callbacks are folded
/// into counters on the round span rather than recorded one span per call.
class SpanLog {
 public:
  static constexpr std::uint64_t kNone = 0;

  /// Opens a span starting now; returns its id (never kNone).
  std::uint64_t begin(std::string name, std::uint64_t parent,
                      std::uint64_t op);
  /// Records a span whose start and end were measured by the caller.
  std::uint64_t record(std::string name, std::uint64_t parent,
                       std::uint64_t op, std::int64_t start_ns,
                       std::int64_t end_ns);
  void end(std::uint64_t id);
  void count(std::uint64_t id, std::string name, double value);
  void write_jsonl(std::ostream& os) const;

 private:
  struct Span {
    std::uint64_t parent = kNone;
    std::uint64_t op = 0;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::vector<std::pair<std::string, double>> counters;
  };
  std::vector<Span> spans_;
};

/// Everything a traced run measures, one field per quantity. per_layer()
/// turns it into the benchmark's per-layer metrics.
struct LayerStats {
  // -- sim: Engine::step() and its phases, per round ------------------------
  Samples step_ms;
  Samples send_phase_ms;
  Samples receive_phase_ms;
  Samples residue_ms;
  double receive_cpu_ms = 0.0;
  /// Σ engine threads × receive phase interval.
  double receive_capacity_ms = 0.0;
  Samples async_run_ms;
  double deliver_at_ns = 0.0;
  std::uint64_t deliver_at_calls = 0;
  Samples deliveries_per_round;
  Samples bytes_per_round;
  // -- core: process callbacks, adversary, fast simulators ------------------
  Samples on_send_cpu_ms;
  Samples on_receive_cpu_ms;
  std::uint64_t on_receive_calls = 0;
  Samples adversary_ms;
  Samples fastsim_crash_free_ms;
  Samples fastsim_eager_ms;
  Samples fastsim_targeted_ms;
  double fastsim_adversary_ms = 0.0;
  double fastsim_adversarial_call_ms = 0.0;
  // -- tree, wire, util, harness ----------------------------------------------
  Samples shape_build_ms;
  Samples ordered_balls_us;
  Samples path_roundtrip_ns;
  Samples pool_fanout_us;
  Samples validate_ms;
  // -- api: Backend::run and SweepRunner::run -------------------------------
  Samples backend_run_ms;
  double serial_run_ms = 0.0;
  /// Σ sweep threads × SweepRunner::run wall for the same work.
  double sweep_capacity_ms = 0.0;
  // -- service: the wrapped InstanceRunner ----------------------------------
  Samples instance_ms;
  Samples batch;
  Samples driver_self_ms;
  // -- search ----------------------------------------------------------------
  Samples eval_ms;
  std::uint64_t fast_path_evals = 0;
  double search_ms = 0.0;
  std::uint64_t search_evals = 0;
  // -- report ----------------------------------------------------------------
  Samples preset_ms;
  Samples series_ms;
  Samples claims_self_ms;
  // -- tracing itself: fastest pass, traced and untraced ---------------------
  double traced_pass_ms = 0.0;
  double untraced_pass_ms = 0.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Free text for people (e.g. which percentile a tail is); not a metric.
  std::string note;
};

/// The per-layer metrics, in the order BENCHMARK.json lists them.
[[nodiscard]] std::vector<Metric> per_layer(const LayerStats& stats);

/// Wraps one process: forwards every callback and records when it ran.
/// decide/halt are mirrored after each call, so the engine sees the
/// wrapped process's progress at the same point it would have seen it.
class TimedProcess final : public bil::sim::ProcessBase {
 public:
  explicit TimedProcess(std::unique_ptr<bil::sim::ProcessBase> inner);

  void on_send(bil::sim::RoundNumber round, bil::sim::Outbox& out) override;
  void on_receive(bil::sim::RoundNumber round,
                  std::span<const bil::sim::Envelope> inbox) override;
  void on_timeout(bil::sim::RoundNumber round) override;

  /// The most recent call of one kind (round is kNever before the first).
  struct Call {
    static constexpr bil::sim::RoundNumber kNever =
        static_cast<bil::sim::RoundNumber>(-1);
    bil::sim::RoundNumber round = kNever;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  [[nodiscard]] const Call& last_send() const noexcept { return send_; }
  [[nodiscard]] const Call& last_receive() const noexcept { return receive_; }

 private:
  void mirror();

  std::unique_ptr<bil::sim::ProcessBase> inner_;
  Call send_;
  Call receive_;
};

/// Wraps an adversary: forwards schedule() and corrupt() and sums their time.
class TimedAdversary final : public bil::sim::Adversary {
 public:
  explicit TimedAdversary(std::unique_ptr<bil::sim::Adversary> inner);

  void schedule(const bil::sim::RoundView& view,
                bil::sim::CrashPlan& plan) override;
  void corrupt(const bil::sim::RoundView& view,
               bil::sim::CorruptionPlan& plan) override;

  /// The calls since the previous take(): time inside them, and the span
  /// from the first start to the last end (both 0 when there were none).
  struct Busy {
    std::int64_t ns = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  [[nodiscard]] Busy take() noexcept;
  [[nodiscard]] std::int64_t total_ns() const noexcept { return total_ns_; }

 private:
  void note(std::int64_t start, std::int64_t end) noexcept;

  std::unique_ptr<bil::sim::Adversary> inner_;
  std::int64_t total_ns_ = 0;
  Busy pending_;
};

/// Wraps a delivery scheduler: forwards everything and times deliver_at.
class TimedScheduler final : public bil::sim::DeliveryScheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<bil::sim::DeliveryScheduler> inner);

  [[nodiscard]] bool synchronous() const noexcept override;
  [[nodiscard]] bil::sim::Adversary* adversary() noexcept override;
  [[nodiscard]] bil::sim::VirtualTime deliver_at(
      const bil::sim::SendBatch& batch) override;
  [[nodiscard]] bil::sim::VirtualTime timeout_ticks() const noexcept override;

  [[nodiscard]] std::int64_t total_ns() const noexcept { return total_ns_; }
  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }

 private:
  std::unique_ptr<bil::sim::DeliveryScheduler> inner_;
  std::int64_t total_ns_ = 0;
  std::uint64_t calls_ = 0;
};

/// Wraps an instance runner: each instance's duration and batch size land
/// in `stats` (instance_ms, batch). The service calls it serially.
[[nodiscard]] bil::service::InstanceRunner timed_instance_runner(
    bil::service::InstanceRunner inner, LayerStats& stats);

}  // namespace bilbench
