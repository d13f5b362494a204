// ExperimentSpec: one value describing a full sweep grid.
//
// The paper's claims are statistical — O(log log n) rounds w.h.p.,
// separation from the Θ(log n) baselines — so every meaningful experiment is
// a grid: algorithms × sizes × adversaries × many seeds. A spec names that
// grid once; SweepRunner (sweep.h) expands it into cells, shards the
// (cell, seed) pairs across a thread pool, and aggregates. The tools,
// examples and tests build specs instead of hand-rolling seed loops.
#pragma once

#include <cstdint>
#include <vector>

#include "harness/runner.h"
#include "service/churn.h"

namespace bil::api {

/// Which executor runs a cell (see backend.h).
enum class BackendKind : std::uint8_t {
  /// Per cell: the fast single-view simulator when the cell is
  /// fast-sim-compatible and n reaches its route's threshold (crash-free,
  /// schedule replay or traffic oracle — auto_fast_sim_min_n in backend.h);
  /// the message-passing engine otherwise.
  kAuto,
  /// Always the full message-passing engine (exact, O(n²) traffic/round).
  kEngine,
  /// Always the single-view fast simulator (O(n log n)/phase): tree-based
  /// cells that are crash-free or whose adversary replays as a schedule or
  /// through the traffic oracle. Selecting it for an incompatible cell
  /// (Byzantine, delay, eager termination, ...) throws.
  kFastSim,
};

[[nodiscard]] const char* to_string(BackendKind kind) noexcept;

/// One fully-resolved grid point: everything needed to execute runs, minus
/// the seed.
struct CellConfig {
  harness::Algorithm algorithm = harness::Algorithm::kBallsIntoLeaves;
  std::uint32_t n = 0;
  harness::AdversarySpec adversary;
  core::TerminationMode termination = core::TerminationMode::kGlobal;
  std::uint32_t gossip_t = harness::kWaitFree;
  BackendKind backend = BackendKind::kAuto;
};

/// The experiment grid. Cells are the cross product
/// algorithms × n_values × adversaries, each run `seeds` times.
struct ExperimentSpec {
  std::vector<harness::Algorithm> algorithms = {
      harness::Algorithm::kBallsIntoLeaves};
  std::vector<std::uint32_t> n_values = {64};
  /// Default: the single failure-free cell.
  std::vector<harness::AdversarySpec> adversaries = {{}};

  /// Independent runs per cell. Every cell runs seeds seed_base,
  /// seed_base+1, ... — common random numbers across cells, so paired
  /// comparisons (algorithm A vs B) see identical coin flips.
  std::uint32_t seeds = 5;
  std::uint64_t seed_base = 1;

  BackendKind backend = BackendKind::kAuto;
  /// Sweep worker threads — the sweep's *total* thread budget; 0 =
  /// std::thread::hardware_concurrency(). Cell-level workers × per-run
  /// engine threads never exceeds this budget (see engine_threads), so a
  /// sweep cannot oversubscribe the machine.
  std::uint32_t threads = 0;
  /// Intra-round engine threads per run (sim::EngineConfig::num_threads).
  /// 0 = auto: run-level parallelism fills the budget first — grids with at
  /// least `threads` runs keep serial engines, while small grids of big
  /// runs hand the leftover budget to each engine. Explicit values are
  /// clamped to the budget. Any value yields bit-identical results
  /// (tests/engine_parallel_test.cpp); only wall clock moves.
  std::uint32_t engine_threads = 0;
  /// Retain per-run records (seed, rounds, names, ...) in the result, not
  /// just per-cell summaries.
  bool keep_runs = false;

  core::TerminationMode termination = core::TerminationMode::kGlobal;
  std::uint32_t gossip_t = harness::kWaitFree;

  /// Long-lived service mode (src/service/): when churn.enabled(), each
  /// (cell, seed) pair runs one RenamingService horizon — a churn-driven
  /// stream of renaming instances with name recycling — instead of one
  /// one-shot run, and cells carry steady-state summaries
  /// (CellSummary::churn). Churn cells must be crash-free; n is the target
  /// steady-state population.
  service::ChurnSpec churn;
};

}  // namespace bil::api
