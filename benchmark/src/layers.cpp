#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ostream>
#include <utility>

#include "json.h"

namespace bilbench {

std::int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

// ---- Fnv1a ------------------------------------------------------------------

void Fnv1a::add_u64(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

void Fnv1a::add_f64(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add_u64(bits);
}

void Fnv1a::add_text(std::string_view text) {
  add_u64(text.size());
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ull;
  }
}

void Fnv1a::add_all(std::span<const std::uint64_t> values) {
  add_u64(values.size());
  for (const std::uint64_t value : values) {
    add_u64(value);
  }
}

// ---- Samples ----------------------------------------------------------------

double Samples::sum() const {
  double total = 0.0;
  for (const double value : values) {
    total += value;
  }
  return total;
}

double Samples::mean() const {
  return values.empty() ? 0.0 : sum() / static_cast<double>(values.size());
}

namespace {

/// Nearest-rank percentile of an ascending list (p in [0, 100]).
double percentile_of(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

std::vector<double> sorted_copy(const std::vector<double>& values) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

double Samples::median() const {
  return percentile_of(sorted_copy(values), 50.0);
}

double Samples::min() const {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Samples::max() const {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

Tail tail_of(const Samples& samples) {
  Tail tail;
  tail.count = samples.values.size();
  const std::vector<double> sorted = sorted_copy(samples.values);
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(tail.count) * (100.0 - p) / 100.0 >= 10.0) {
      tail.percentile = p;
      tail.value = percentile_of(sorted, p);
      return tail;
    }
  }
  tail.value = percentile_of(sorted, 50.0);
  return tail;
}

// ---- SpanLog ----------------------------------------------------------------

std::uint64_t SpanLog::begin(std::string name, std::uint64_t parent,
                             std::uint64_t op) {
  const std::int64_t start = now_ns();
  return record(std::move(name), parent, op, start, start);
}

std::uint64_t SpanLog::record(std::string name, std::uint64_t parent,
                              std::uint64_t op, std::int64_t start_ns,
                              std::int64_t end_ns) {
  spans_.push_back(Span{.parent = parent,
                        .op = op,
                        .name = std::move(name),
                        .start_ns = start_ns,
                        .end_ns = end_ns});
  return spans_.size();
}

void SpanLog::end(std::uint64_t id) { spans_.at(id - 1).end_ns = now_ns(); }

void SpanLog::count(std::uint64_t id, std::string name, double value) {
  spans_.at(id - 1).counters.emplace_back(std::move(name), value);
}

void SpanLog::write_jsonl(std::ostream& os) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    os << "{\"id\":" << i + 1 << ",\"parent\":" << span.parent
       << ",\"op\":" << span.op << ",\"name\":" << json_string(span.name)
       << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
       << ",\"counters\":{";
    for (std::size_t c = 0; c < span.counters.size(); ++c) {
      os << (c == 0 ? "" : ",") << json_string(span.counters[c].first) << ':'
         << json_number(span.counters[c].second);
    }
    os << "}}\n";
  }
}

// ---- per-layer metrics --------------------------------------------------------

namespace {

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

std::string tail_note(const Tail& tail) {
  std::string note = "p";
  note += json_number(tail.percentile);
  note += " of " + std::to_string(tail.count) + " samples";
  return note;
}

}  // namespace

std::vector<Metric> per_layer(const LayerStats& s) {
  const Tail step_tail = tail_of(s.step_ms);
  const Tail run_tail = tail_of(s.backend_run_ms);
  const Tail instance_tail = tail_of(s.instance_ms);
  const Tail eval_tail = tail_of(s.eval_ms);
  const double step_total = s.step_ms.sum();
  const double search_evals_ms =
      s.eval_ms.mean() * static_cast<double>(s.search_evals);
  return {
      {"sim.step_ms_p50", s.step_ms.median(), "ms",
       std::to_string(s.step_ms.values.size()) + " steps"},
      {"sim.step_ms_tail", step_tail.value, "ms", tail_note(step_tail)},
      {"sim.send_phase_ms", s.send_phase_ms.mean(), "ms", "mean per round"},
      {"sim.receive_phase_ms", s.receive_phase_ms.mean(), "ms",
       "mean per round"},
      {"sim.residue_ms", s.residue_ms.mean(), "ms", "mean per round"},
      {"sim.receive_share", ratio(s.receive_phase_ms.sum(), step_total),
       "fraction", "receive phase / step"},
      {"sim.residue_share", ratio(s.residue_ms.sum(), step_total), "fraction",
       "residue / step"},
      {"sim.receive_parallel_eff",
       ratio(s.receive_cpu_ms, s.receive_capacity_ms), "fraction",
       "on_receive cpu / (threads x receive phase)"},
      {"sim.async_run_ms", s.async_run_ms.mean(), "ms", "mean per run"},
      {"sim.deliver_at_us",
       ratio(s.deliver_at_ns * 1e-3, static_cast<double>(s.deliver_at_calls)),
       "us", std::to_string(s.deliver_at_calls) + " calls"},
      {"sim.deliveries_per_round", s.deliveries_per_round.mean(), "count", ""},
      {"sim.bytes_per_round", s.bytes_per_round.mean(), "bytes", ""},
      {"core.on_send_cpu_ms", s.on_send_cpu_ms.mean(), "ms",
       "sum over processes, mean per round"},
      {"core.on_receive_cpu_ms", s.on_receive_cpu_ms.mean(), "ms",
       "sum over processes, mean per round"},
      {"core.on_receive_us_per_call",
       ratio(s.receive_cpu_ms * 1e3, static_cast<double>(s.on_receive_calls)),
       "us", std::to_string(s.on_receive_calls) + " calls"},
      {"core.adversary_ms", s.adversary_ms.mean(), "ms", "mean per round"},
      {"core.fastsim_ms.crash_free", s.fastsim_crash_free_ms.mean(), "ms",
       "run_fast_sim"},
      {"core.fastsim_ms.eager", s.fastsim_eager_ms.mean(), "ms",
       "run_fast_sim_crash"},
      {"core.fastsim_ms.targeted", s.fastsim_targeted_ms.mean(), "ms",
       "run_fast_sim_targeted"},
      {"core.fastsim_adversary_frac",
       ratio(s.fastsim_adversary_ms, s.fastsim_adversarial_call_ms),
       "fraction", "adversary / (crash + targeted calls)"},
      {"tree.shape_build_ms", s.shape_build_ms.median(), "ms", "median"},
      {"tree.ordered_balls_us", s.ordered_balls_us.median(), "us", "median"},
      {"wire.path_roundtrip_ns", s.path_roundtrip_ns.median(), "ns",
       "median"},
      {"harness.validate_ms", s.validate_ms.mean(), "ms", "mean per run"},
      {"api.backend_run_ms_p50", s.backend_run_ms.median(), "ms",
       std::to_string(s.backend_run_ms.values.size()) + " runs"},
      {"api.backend_run_ms_tail", run_tail.value, "ms", tail_note(run_tail)},
      {"api.sweep_parallel_eff", ratio(s.serial_run_ms, s.sweep_capacity_ms),
       "fraction", "serial runs / (threads x sweep wall)"},
      {"service.instance_ms_p50", s.instance_ms.median(), "ms",
       std::to_string(s.instance_ms.values.size()) + " instances"},
      {"service.instance_ms_tail", instance_tail.value, "ms",
       tail_note(instance_tail)},
      {"service.batch_mean", s.batch.mean(), "count", "joiners per instance"},
      {"service.driver_self_ms", s.driver_self_ms.mean(), "ms",
       "per horizon: RenamingService::run - instances"},
      {"search.eval_ms_p50", s.eval_ms.median(), "ms",
       std::to_string(s.eval_ms.values.size()) + " evaluations"},
      {"search.eval_ms_tail", eval_tail.value, "ms", tail_note(eval_tail)},
      {"search.fast_path_frac",
       ratio(static_cast<double>(s.fast_path_evals),
             static_cast<double>(s.eval_ms.values.size())),
       "fraction", ""},
      {"search.optimizer_self_frac",
       ratio(s.search_ms - search_evals_ms, s.search_ms), "fraction",
       "estimate: (run_search - evaluations x mean evaluate) / run_search"},
      {"report.preset_ms", s.preset_ms.mean(), "ms", "run_preset(ci)"},
      {"report.series_ms_max", s.series_ms.max(), "ms",
       "slowest one-series preset"},
      {"report.claims_self_ms", s.claims_self_ms.mean(), "ms",
       "preset - sum of series"},
      {"util.pool_fanout_us", s.pool_fanout_us.median(), "us", "median"},
      {"trace_overhead_frac", ratio(s.traced_pass_ms, s.untraced_pass_ms) - 1.0,
       "fraction", "traced / untraced fastest pass - 1"},
  };
}

// ---- decorators ---------------------------------------------------------------

TimedProcess::TimedProcess(std::unique_ptr<bil::sim::ProcessBase> inner)
    : inner_(std::move(inner)) {}

void TimedProcess::mirror() {
  if (!has_decided() && inner_->has_decided()) {
    decide(inner_->decision());
  }
  if (inner_->halted()) {
    halt();
  }
}

void TimedProcess::on_send(bil::sim::RoundNumber round,
                           bil::sim::Outbox& out) {
  const std::int64_t start = now_ns();
  inner_->on_send(round, out);
  const std::int64_t end = now_ns();
  send_ = Call{round, start, end};
  mirror();
}

void TimedProcess::on_receive(bil::sim::RoundNumber round,
                              std::span<const bil::sim::Envelope> inbox) {
  const std::int64_t start = now_ns();
  // A WireError escaping here must reach the engine's quarantine exactly as
  // it would from the wrapped process, so only record on the normal path.
  inner_->on_receive(round, inbox);
  const std::int64_t end = now_ns();
  receive_ = Call{round, start, end};
  mirror();
}

void TimedProcess::on_timeout(bil::sim::RoundNumber round) {
  inner_->on_timeout(round);
  mirror();
}

TimedAdversary::TimedAdversary(std::unique_ptr<bil::sim::Adversary> inner)
    : inner_(std::move(inner)) {}

void TimedAdversary::schedule(const bil::sim::RoundView& view,
                              bil::sim::CrashPlan& plan) {
  const std::int64_t start = now_ns();
  inner_->schedule(view, plan);
  note(start, now_ns());
}

void TimedAdversary::corrupt(const bil::sim::RoundView& view,
                             bil::sim::CorruptionPlan& plan) {
  const std::int64_t start = now_ns();
  inner_->corrupt(view, plan);
  note(start, now_ns());
}

void TimedAdversary::note(std::int64_t start, std::int64_t end) noexcept {
  total_ns_ += end - start;
  if (pending_.ns == 0 && pending_.start_ns == 0) {
    pending_.start_ns = start;
  }
  pending_.ns += end - start;
  pending_.end_ns = end;
}

TimedAdversary::Busy TimedAdversary::take() noexcept {
  const Busy busy = pending_;
  pending_ = Busy{};
  return busy;
}

TimedScheduler::TimedScheduler(
    std::unique_ptr<bil::sim::DeliveryScheduler> inner)
    : inner_(std::move(inner)) {}

bool TimedScheduler::synchronous() const noexcept {
  return inner_->synchronous();
}

bil::sim::Adversary* TimedScheduler::adversary() noexcept {
  return inner_->adversary();
}

bil::sim::VirtualTime TimedScheduler::deliver_at(
    const bil::sim::SendBatch& batch) {
  const std::int64_t start = now_ns();
  const bil::sim::VirtualTime at = inner_->deliver_at(batch);
  total_ns_ += now_ns() - start;
  ++calls_;
  return at;
}

bil::sim::VirtualTime TimedScheduler::timeout_ticks() const noexcept {
  return inner_->timeout_ticks();
}

bil::service::InstanceRunner timed_instance_runner(
    bil::service::InstanceRunner inner, LayerStats& stats) {
  return [inner = std::move(inner), &stats](std::uint32_t participants,
                                            std::uint64_t seed) {
    const std::int64_t start = now_ns();
    bil::service::InstanceOutcome outcome = inner(participants, seed);
    stats.instance_ms.add(seconds_between(start, now_ns()) * 1e3);
    stats.batch.add(participants);
    return outcome;
  };
}

}  // namespace bilbench
