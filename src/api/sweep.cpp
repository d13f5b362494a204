#include "api/sweep.h"

#include <atomic>
#include <exception>
#include <iterator>
#include <limits>
#include <locale>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "api/churn.h"
#include "api/registry.h"
#include "core/balls_into_leaves.h"
#include "util/contract.h"
#include "util/thread_pool.h"

namespace bil::api {

namespace {

/// Lossless, locale-independent double for JSON: max_digits10 shortest-ish
/// form so equal values always serialize to equal text.
void write_double(std::ostream& os, double value) {
  std::ostringstream buffer;
  buffer.imbue(std::locale::classic());
  buffer.precision(std::numeric_limits<double>::max_digits10);
  buffer << value;
  os << buffer.str();
}

void write_summary(std::ostream& os, const stats::Summary& summary) {
  os << "{\"count\":" << summary.count << ",\"mean\":";
  write_double(os, summary.mean);
  os << ",\"stddev\":";
  write_double(os, summary.stddev);
  os << ",\"min\":";
  write_double(os, summary.min);
  os << ",\"median\":";
  write_double(os, summary.median);
  os << ",\"p99\":";
  write_double(os, summary.p99);
  os << ",\"max\":";
  write_double(os, summary.max);
  os << '}';
}

void write_churn(std::ostream& os, const ChurnCellSummary& churn) {
  const service::ChurnSpec& spec = churn.spec;
  os << "{\"profile\":\"" << service::to_string(spec.profile)
     << "\",\"horizon_rounds\":" << spec.horizon_rounds
     << ",\"arrival_permille\":" << spec.arrival_permille
     << ",\"hold_rounds\":" << spec.resolved_hold_rounds()
     << ",\"warm_start\":" << (spec.warm_start ? "true" : "false")
     << ",\"names_per_round\":";
  write_summary(os, churn.names_per_round);
  os << ",\"throughput_ratio\":";
  write_summary(os, churn.throughput_ratio);
  os << ",\"latency_mean\":";
  write_summary(os, churn.latency_mean);
  os << ",\"latency_p50\":";
  write_summary(os, churn.latency_p50);
  os << ",\"latency_p99\":";
  write_summary(os, churn.latency_p99);
  os << ",\"density\":";
  write_summary(os, churn.density);
  os << ",\"batch_mean\":";
  write_summary(os, churn.batch_mean);
  os << ",\"instances\":";
  write_summary(os, churn.instances);
  os << ",\"backlog_peak\":";
  write_summary(os, churn.backlog_peak);
  os << ",\"namespace_final\":";
  write_summary(os, churn.namespace_final);
  os << ",\"live_final\":";
  write_summary(os, churn.live_final);
  if (!churn.runs.empty()) {
    os << ",\"runs\":[";
    for (std::size_t i = 0; i < churn.runs.size(); ++i) {
      const service::ServiceMetrics& run = churn.runs[i];
      os << (i == 0 ? "" : ",") << "{\"seed\":" << run.seed
         << ",\"arrivals\":" << run.arrivals << ",\"joined\":" << run.joined
         << ",\"departed\":" << run.departed
         << ",\"instances\":" << run.instances
         << ",\"messages\":" << run.messages << ",\"names_per_round\":";
      write_double(os, run.names_per_round);
      os << ",\"throughput_ratio\":";
      write_double(os, run.throughput_ratio);
      os << ",\"latency_p99\":";
      write_double(os, run.latency.p99);
      os << ",\"density_mean\":";
      write_double(os, run.density_mean);
      os << ",\"namespace_final\":" << run.namespace_final
         << ",\"live_final\":" << run.live_final << '}';
    }
    os << ']';
  }
  os << '}';
}

void write_cell(std::ostream& os, const CellSummary& cell) {
  const harness::AdversarySpec& adversary = cell.config.adversary;
  const AdversaryInfo& info = adversary_info(adversary.kind);
  os << "{\"algorithm\":\"" << algorithm_info(cell.config.algorithm).name
     << "\",\"n\":" << cell.config.n << ",\"adversary\":{\"kind\":\""
     << info.name << "\",\"fault_model\":\""
     << harness::to_string(info.fault_model) << "\",\"timing\":\""
     << info.timing()
     << "\",\"crashes\":" << adversary.crashes << ",\"when\":" << adversary.when
     << ",\"horizon\":" << adversary.horizon
     << ",\"per_round\":" << adversary.per_round
     << ",\"byzantine\":" << adversary.byzantine
     << ",\"byzantine_rounds\":" << adversary.byzantine_rounds
     << ",\"max_delay\":" << adversary.delay.max_delay
     << ",\"gst\":" << adversary.delay.gst
     << ",\"timeout\":" << adversary.delay.timeout
     << "},\"termination\":\""
     << core::to_string(cell.config.termination) << "\",\"backend\":\""
     << to_string(cell.backend_used) << "\",\"metrics\":{\"rounds\":";
  write_summary(os, cell.rounds);
  os << ",\"total_rounds\":";
  write_summary(os, cell.total_rounds);
  os << ",\"crashes\":";
  write_summary(os, cell.crashes);
  os << ",\"messages\":";
  write_summary(os, cell.messages);
  os << ",\"bytes\":";
  // Fast-sim cells never materialize payloads, and churn cells never track
  // them: byte counts are absent, not zero — mixed-backend sweep tables
  // must not report fake zero traffic.
  if (cell.backend_used == BackendKind::kFastSim || cell.churn.enabled) {
    os << "null";
  } else {
    write_summary(os, cell.bytes);
  }
  os << '}';
  if (cell.churn.enabled) {
    os << ",\"churn\":";
    write_churn(os, cell.churn);
  }
  if (!cell.runs.empty()) {
    os << ",\"runs\":[";
    for (std::size_t i = 0; i < cell.runs.size(); ++i) {
      const RunRecord& record = cell.runs[i];
      os << (i == 0 ? "" : ",") << "{\"seed\":" << record.seed
         << ",\"rounds\":" << record.rounds
         << ",\"total_rounds\":" << record.total_rounds
         << ",\"crashes\":" << record.crashes
         << ",\"messages\":" << record.messages_delivered;
      if (record.bytes_measured) {
        os << ",\"bytes\":" << record.bytes_delivered
           << ",\"max_payload_bytes\":" << record.max_payload_bytes;
      } else {
        os << ",\"bytes\":null,\"max_payload_bytes\":null";
      }
      os << '}';
    }
    os << ']';
  }
  os << '}';
}

stats::Summary summarize_field(const RunRecord* records, std::size_t count,
                               double (*field)(const RunRecord&)) {
  std::vector<double> values;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    values.push_back(field(records[i]));
  }
  return stats::summarize(values);
}

stats::Summary summarize_metric(
    const service::ServiceMetrics* metrics, std::size_t count,
    double (*field)(const service::ServiceMetrics&)) {
  std::vector<double> values;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    values.push_back(field(metrics[i]));
  }
  return stats::summarize(values);
}

/// Runs run_slot(index) for every index in [0, total) on `workers` threads
/// that pull indices from one shared counter, so grids that mix cell sizes
/// stay balanced. Each slot writes only its own preassigned output, so the
/// scheduling order cannot affect the result. The first exception stops
/// the remaining slots and is rethrown once every worker has joined.
template <typename RunSlot>
void for_each_slot(std::size_t total, std::size_t workers,
                   const RunSlot& run_slot) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto worker = [&] {
    for (;;) {
      const std::size_t index = next.fetch_add(1);
      if (index >= total) {
        return;
      }
      try {
        run_slot(index);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) {
          first_error = std::current_exception();
        }
        next.store(total);  // drain remaining work
        return;
      }
    }
  };
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      pool.emplace_back(worker);
    }
    for (std::thread& thread : pool) {
      thread.join();
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace

void SweepResult::write_json(std::ostream& os) const {
  os << "{\"total_runs\":" << total_runs << ",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) {
      os << ',';
    }
    write_cell(os, cells[i]);
  }
  os << "]}\n";
}

std::uint64_t cell_run_seed(const ExperimentSpec& spec,
                            std::size_t /*cell_index*/,
                            std::uint32_t seed_index) {
  return spec.seed_base + seed_index;
}

std::vector<CellConfig> SweepRunner::expand(const ExperimentSpec& spec) {
  BIL_REQUIRE(!spec.algorithms.empty(), "spec lists no algorithms");
  BIL_REQUIRE(!spec.n_values.empty(), "spec lists no n values");
  BIL_REQUIRE(!spec.adversaries.empty(),
              "spec lists no adversaries (use the default {} for "
              "failure-free)");
  BIL_REQUIRE(spec.seeds >= 1, "spec needs at least one seed per cell");
  std::vector<CellConfig> cells;
  cells.reserve(spec.algorithms.size() * spec.n_values.size() *
                spec.adversaries.size());
  for (harness::Algorithm algorithm : spec.algorithms) {
    for (std::uint32_t n : spec.n_values) {
      for (const harness::AdversarySpec& adversary : spec.adversaries) {
        CellConfig cell;
        cell.algorithm = algorithm;
        cell.n = n;
        cell.adversary = adversary;
        cell.termination = spec.termination;
        cell.gossip_t = spec.gossip_t;
        cell.backend = spec.backend;
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

SweepRunner::SweepRunner(ExperimentSpec spec)
    : spec_(std::move(spec)), cells_(expand(spec_)) {
  if (spec_.churn.enabled()) {
    // Churn mode drives crash-free instances only (the service's lease
    // mapping assumes every participant decides a tight 1..k name).
    // Validate here so a bad grid fails before any horizon.
    for (const harness::AdversarySpec& adversary : spec_.adversaries) {
      BIL_REQUIRE(adversary.kind == harness::AdversaryKind::kNone,
                  "churn mode runs crash-free instances; drop the adversary");
    }
    for (const CellConfig& cell : cells_) {
      (void)make_instance_runner(cell, 1);
    }
    return;
  }
  // Resolve every cell's backend up front so incompatible explicit requests
  // fail at construction, before any run executes.
  for (const CellConfig& cell : cells_) {
    (void)select_backend(cell);
  }
}

SweepResult SweepRunner::run() const {
  const std::size_t num_cells = cells_.size();
  const std::size_t runs_per_cell = spec_.seeds;
  const std::size_t total = num_cells * runs_per_cell;

  // Global thread budget: cell-level workers × per-run engine threads must
  // not exceed spec.threads (default: the hardware thread count), so the
  // two levels of parallelism never oversubscribe the machine. Run-level
  // sharding amortizes better (zero per-round synchronization), so auto
  // engine_threads stays 1 whenever the grid has enough runs to fill the
  // budget and only grids smaller than the budget hand engines the
  // leftover cores.
  const std::uint32_t budget =
      spec_.threads != 0 ? spec_.threads
                         : util::ThreadPool::hardware_threads();
  std::uint32_t engine_threads = spec_.engine_threads;
  if (engine_threads == 0) {
    engine_threads =
        total >= budget ? 1
                        : std::max<std::uint32_t>(
                              1, budget / static_cast<std::uint32_t>(total));
  }
  // An explicit engine_threads above the budget would oversubscribe (one
  // worker × engine_threads threads); the budget wins.
  engine_threads = std::min(engine_threads, budget);
  const std::size_t workers =
      std::min<std::size_t>(std::max(1u, budget / engine_threads), total);

  if (spec_.churn.enabled()) {
    return run_churn(engine_threads, workers);
  }

  const std::unique_ptr<Backend> engine =
      make_backend(BackendKind::kEngine, engine_threads);
  const std::unique_ptr<Backend> fast_sim =
      make_backend(BackendKind::kFastSim);
  std::vector<BackendKind> resolved(num_cells);
  for (std::size_t c = 0; c < num_cells; ++c) {
    resolved[c] = select_backend(cells_[c]);
  }

  std::vector<RunRecord> records(total);
  for_each_slot(total, workers, [&](std::size_t index) {
    const std::size_t cell_index = index / runs_per_cell;
    const Backend& backend =
        resolved[cell_index] == BackendKind::kFastSim ? *fast_sim : *engine;
    records[index] =
        backend.run(cells_[cell_index],
                    cell_run_seed(spec_, cell_index,
                                  static_cast<std::uint32_t>(
                                      index % runs_per_cell)));
    if (!spec_.keep_runs) {
      // Summaries never read the names; don't hold n values per run (a
      // 2^18-ball sweep would otherwise retain them all until aggregation).
      records[index].names = {};
    }
  });

  SweepResult result;
  result.total_runs = total;
  result.cells.reserve(num_cells);
  for (std::size_t c = 0; c < num_cells; ++c) {
    // Summaries fold over the cell's slot range in place; the records
    // themselves (with their size-n names vectors) are only moved into the
    // result when the spec asked for them.
    const RunRecord* cell_records = records.data() + c * runs_per_cell;
    CellSummary summary;
    summary.config = cells_[c];
    summary.backend_used = resolved[c];
    summary.rounds = summarize_field(
        cell_records, runs_per_cell,
        [](const RunRecord& r) { return static_cast<double>(r.rounds); });
    summary.total_rounds = summarize_field(
        cell_records, runs_per_cell,
        [](const RunRecord& r) { return static_cast<double>(r.total_rounds); });
    summary.crashes = summarize_field(
        cell_records, runs_per_cell,
        [](const RunRecord& r) { return static_cast<double>(r.crashes); });
    summary.messages = summarize_field(
        cell_records, runs_per_cell, [](const RunRecord& r) {
          return static_cast<double>(r.messages_delivered);
        });
    summary.bytes = summarize_field(
        cell_records, runs_per_cell, [](const RunRecord& r) {
          return static_cast<double>(r.bytes_delivered);
        });
    if (spec_.keep_runs) {
      const auto begin =
          records.begin() + static_cast<std::ptrdiff_t>(c * runs_per_cell);
      summary.runs.assign(
          std::make_move_iterator(begin),
          std::make_move_iterator(
              begin + static_cast<std::ptrdiff_t>(runs_per_cell)));
    }
    result.cells.push_back(std::move(summary));
  }
  return result;
}

SweepResult SweepRunner::run_churn(std::uint32_t engine_threads,
                                   std::size_t workers) const {
  const std::size_t num_cells = cells_.size();
  const std::size_t runs_per_cell = spec_.seeds;
  const std::size_t total = num_cells * runs_per_cell;

  // Same slot discipline as the one-shot path, one full service horizon
  // per slot. Each horizon is itself a sequential driver loop; the injected
  // instance runner may use engine_threads internally, which moves wall
  // clock only.
  std::vector<service::ServiceMetrics> metrics(total);
  for_each_slot(total, workers, [&](std::size_t index) {
    const std::size_t cell_index = index / runs_per_cell;
    metrics[index] = run_churn_cell(
        cells_[cell_index], spec_.churn,
        cell_run_seed(spec_, cell_index,
                      static_cast<std::uint32_t>(index % runs_per_cell)),
        engine_threads);
  });

  SweepResult result;
  result.total_runs = total;
  result.cells.reserve(num_cells);
  for (std::size_t c = 0; c < num_cells; ++c) {
    const service::ServiceMetrics* cell_metrics =
        metrics.data() + c * runs_per_cell;
    CellSummary summary;
    summary.config = cells_[c];
    summary.backend_used = churn_instance_backend(cells_[c]);
    // Round-metric consumers (tables, report fits) read `rounds` as the
    // per-run headline: in churn mode that is the horizon's mean
    // rounds-to-name. total_rounds carries the horizon and messages the
    // horizon's total instance traffic; bytes are never tracked.
    summary.rounds = summarize_metric(
        cell_metrics, runs_per_cell,
        [](const service::ServiceMetrics& m) { return m.latency.mean; });
    summary.total_rounds = summarize_metric(
        cell_metrics, runs_per_cell, [](const service::ServiceMetrics& m) {
          return static_cast<double>(m.horizon);
        });
    summary.crashes = summarize_metric(
        cell_metrics, runs_per_cell,
        [](const service::ServiceMetrics&) { return 0.0; });
    summary.messages = summarize_metric(
        cell_metrics, runs_per_cell, [](const service::ServiceMetrics& m) {
          return static_cast<double>(m.messages);
        });
    summary.bytes = summarize_metric(
        cell_metrics, runs_per_cell,
        [](const service::ServiceMetrics&) { return 0.0; });

    ChurnCellSummary churn;
    churn.enabled = true;
    churn.spec = spec_.churn;
    churn.names_per_round = summarize_metric(
        cell_metrics, runs_per_cell,
        [](const service::ServiceMetrics& m) { return m.names_per_round; });
    churn.throughput_ratio = summarize_metric(
        cell_metrics, runs_per_cell,
        [](const service::ServiceMetrics& m) { return m.throughput_ratio; });
    churn.latency_mean = summarize_metric(
        cell_metrics, runs_per_cell,
        [](const service::ServiceMetrics& m) { return m.latency.mean; });
    churn.latency_p50 = summarize_metric(
        cell_metrics, runs_per_cell,
        [](const service::ServiceMetrics& m) { return m.latency.median; });
    churn.latency_p99 = summarize_metric(
        cell_metrics, runs_per_cell,
        [](const service::ServiceMetrics& m) { return m.latency.p99; });
    churn.density = summarize_metric(
        cell_metrics, runs_per_cell,
        [](const service::ServiceMetrics& m) { return m.density_mean; });
    churn.batch_mean = summarize_metric(
        cell_metrics, runs_per_cell,
        [](const service::ServiceMetrics& m) { return m.batch.mean; });
    churn.instances = summarize_metric(
        cell_metrics, runs_per_cell, [](const service::ServiceMetrics& m) {
          return static_cast<double>(m.instances);
        });
    churn.backlog_peak = summarize_metric(
        cell_metrics, runs_per_cell, [](const service::ServiceMetrics& m) {
          return static_cast<double>(m.backlog_peak);
        });
    churn.namespace_final = summarize_metric(
        cell_metrics, runs_per_cell, [](const service::ServiceMetrics& m) {
          return static_cast<double>(m.namespace_final);
        });
    churn.live_final = summarize_metric(
        cell_metrics, runs_per_cell, [](const service::ServiceMetrics& m) {
          return static_cast<double>(m.live_final);
        });
    if (spec_.keep_runs) {
      const auto begin =
          metrics.begin() + static_cast<std::ptrdiff_t>(c * runs_per_cell);
      churn.runs.assign(
          std::make_move_iterator(begin),
          std::make_move_iterator(begin +
                                  static_cast<std::ptrdiff_t>(runs_per_cell)));
    }
    summary.churn = std::move(churn);
    result.cells.push_back(std::move(summary));
  }
  return result;
}

}  // namespace bil::api
