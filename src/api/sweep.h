// SweepRunner: expand an ExperimentSpec into cells, shard (cell, seed)
// pairs across a thread pool, aggregate into a SweepResult.
//
// Determinism contract: the result is a pure function of the spec — run k
// of every cell runs seed seed_base + k, each run writes into a
// preassigned slot, and summaries are folded
// in slot order after the pool joins. The same spec run with 1 thread and
// with 8 threads therefore produces bit-identical SweepResults (asserted by
// tests/api_sweep_test.cpp) — and the per-run engine is itself
// thread-count-invariant (tests/engine_parallel_test.cpp), so the
// engine_threads knob moves wall clock only. Cell workers × engine threads
// is capped by the spec.threads budget (see ExperimentSpec).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "api/backend.h"
#include "api/experiment.h"
#include "service/service.h"
#include "stats/summary.h"

namespace bil::api {

/// Steady-state summaries of a churn-mode cell, aggregated over its seeds
/// (each seed is one full RenamingService horizon; see service/service.h).
struct ChurnCellSummary {
  /// False for one-shot cells; the summaries below are meaningful only
  /// when set.
  bool enabled = false;
  service::ChurnSpec spec;
  /// Names assigned per service round.
  stats::Summary names_per_round;
  /// names_per_round / mean arrival rate (1.0 = the service keeps up).
  stats::Summary throughput_ratio;
  /// Rounds-to-name: per-horizon mean / median / p99, summarized over seeds.
  stats::Summary latency_mean;
  stats::Summary latency_p50;
  stats::Summary latency_p99;
  /// Mean live-name density (live clients / namespace size).
  stats::Summary density;
  /// Joiners per renaming instance (per-horizon mean).
  stats::Summary batch_mean;
  stats::Summary instances;
  stats::Summary backlog_peak;
  stats::Summary namespace_final;
  stats::Summary live_final;
  /// Per-seed service metrics; populated only when the spec set keep_runs.
  std::vector<service::ServiceMetrics> runs;
};

/// Aggregated outcome of one grid cell.
struct CellSummary {
  CellConfig config;
  /// The concrete backend that executed this cell's runs.
  BackendKind backend_used = BackendKind::kEngine;
  stats::Summary rounds;
  stats::Summary total_rounds;
  stats::Summary crashes;
  /// Physical deliveries; fast-sim cells report the analytically exact
  /// logical count (see RunRecord::messages_delivered).
  stats::Summary messages;
  /// Payload bytes; meaningless for fast-sim cells (payloads are never
  /// materialized) — write_json emits null for them.
  stats::Summary bytes;
  /// Per-run records in seed-index order; populated only when the spec set
  /// keep_runs (one-shot mode; churn mode fills churn.runs instead).
  std::vector<RunRecord> runs;
  /// Steady-state summaries when the spec ran in churn mode. In that mode
  /// `rounds` holds the per-horizon mean rounds-to-name (so round-metric
  /// consumers keep working), `total_rounds` the horizon, and `messages`
  /// the per-horizon total; bytes are never measured.
  ChurnCellSummary churn;
};

struct SweepResult {
  /// Cells in grid order: algorithms-major, then n_values, then adversaries.
  std::vector<CellSummary> cells;
  std::uint64_t total_runs = 0;

  /// Structured JSON serialization (stable field order; doubles written
  /// round-trip lossless, so equal results serialize identically).
  void write_json(std::ostream& os) const;
};

/// The seed of run `seed_index` of any cell under a spec: seed_base +
/// seed_index, shared by every cell (the cell index is not read). Exposed
/// so tools can label single runs consistently with sweeps.
[[nodiscard]] std::uint64_t cell_run_seed(const ExperimentSpec& spec,
                                          std::size_t cell_index,
                                          std::uint32_t seed_index);

class SweepRunner {
 public:
  explicit SweepRunner(ExperimentSpec spec);

  /// The spec's grid, in result order.
  [[nodiscard]] const std::vector<CellConfig>& cells() const noexcept {
    return cells_;
  }

  /// Executes the full grid. Thread-parallel per the spec; deterministic in
  /// the spec regardless of thread count.
  [[nodiscard]] SweepResult run() const;

  /// Expands a spec into its grid without running it.
  [[nodiscard]] static std::vector<CellConfig> expand(
      const ExperimentSpec& spec);

 private:
  /// Churn-mode execution: one RenamingService horizon per (cell, seed).
  [[nodiscard]] SweepResult run_churn(std::uint32_t engine_threads,
                                      std::size_t workers) const;

  ExperimentSpec spec_;
  std::vector<CellConfig> cells_;
};

}  // namespace bil::api
