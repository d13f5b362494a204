// SweepRunner tests: grid expansion, thread-count-independent determinism,
// engine/fast-sim backend agreement through the API (extending the
// fast_sim equivalence tests), and the ISSUE 1 acceptance sweep — a
// multi-threaded n=4096 sweep over 20+ seeds with backend-validated,
// deterministic results.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "api/sweep.h"
#include "util/contract.h"

namespace bil {
namespace {

using harness::Algorithm;
using harness::AdversaryKind;

std::string json_of(const api::SweepResult& result) {
  std::ostringstream out;
  result.write_json(out);
  return out.str();
}

api::ExperimentSpec mixed_grid_spec() {
  api::ExperimentSpec spec;
  spec.algorithms = {Algorithm::kBallsIntoLeaves, Algorithm::kHalving};
  spec.n_values = {16, 64};
  spec.adversaries = {
      harness::AdversarySpec{.kind = AdversaryKind::kNone},
      harness::AdversarySpec{.kind = AdversaryKind::kBurst, .crashes = 4,
                             .when = 1}};
  spec.seeds = 5;
  spec.keep_runs = true;
  return spec;
}

TEST(Sweep, ExpandsTheFullGridInOrder) {
  const api::ExperimentSpec spec = mixed_grid_spec();
  const auto cells = api::SweepRunner::expand(spec);
  ASSERT_EQ(cells.size(), 2u * 2u * 2u);
  // Algorithms-major, then n, then adversary.
  EXPECT_EQ(cells[0].algorithm, Algorithm::kBallsIntoLeaves);
  EXPECT_EQ(cells[0].n, 16u);
  EXPECT_EQ(cells[0].adversary.kind, AdversaryKind::kNone);
  EXPECT_EQ(cells[1].adversary.kind, AdversaryKind::kBurst);
  EXPECT_EQ(cells[2].n, 64u);
  EXPECT_EQ(cells[4].algorithm, Algorithm::kHalving);
}

TEST(Sweep, RejectsEmptyAxes) {
  api::ExperimentSpec spec;
  spec.algorithms.clear();
  EXPECT_THROW((void)api::SweepRunner(spec), ContractViolation);
  spec = api::ExperimentSpec{};
  spec.seeds = 0;
  EXPECT_THROW((void)api::SweepRunner(spec), ContractViolation);
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
  // The determinism contract: 1 worker and 8 workers produce bit-identical
  // SweepResults (slot-indexed writes, slot-ordered aggregation).
  api::ExperimentSpec spec = mixed_grid_spec();
  spec.threads = 1;
  const api::SweepResult serial = api::SweepRunner(spec).run();
  spec.threads = 8;
  const api::SweepResult parallel = api::SweepRunner(spec).run();

  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    ASSERT_EQ(serial.cells[c].runs.size(), parallel.cells[c].runs.size());
    for (std::size_t r = 0; r < serial.cells[c].runs.size(); ++r) {
      const api::RunRecord& a = serial.cells[c].runs[r];
      const api::RunRecord& b = parallel.cells[c].runs[r];
      EXPECT_EQ(a.seed, b.seed);
      EXPECT_EQ(a.rounds, b.rounds);
      EXPECT_EQ(a.names, b.names);
    }
  }
  EXPECT_EQ(json_of(serial), json_of(parallel));
}

TEST(Sweep, BackendsAgreeRoundForRoundOnCrashFreeConfigs) {
  // Extends the fast_sim equivalence tests through the new API: explicit
  // EngineBackend and FastSimBackend sweeps of the same crash-free spec
  // agree on rounds, total rounds and decided names for every run of every
  // cell, including the smallest trees and the sizes either side of 2^6.
  api::ExperimentSpec spec;
  spec.algorithms = {Algorithm::kBallsIntoLeaves, Algorithm::kEarlyTerminating,
                     Algorithm::kRankDescent, Algorithm::kHalving};
  spec.n_values = {1, 2, 3, 16, 37, 63, 64, 65};
  spec.seeds = 3;
  spec.keep_runs = true;

  spec.backend = api::BackendKind::kEngine;
  const api::SweepResult engine = api::SweepRunner(spec).run();
  spec.backend = api::BackendKind::kFastSim;
  const api::SweepResult fast = api::SweepRunner(spec).run();

  ASSERT_EQ(engine.cells.size(), fast.cells.size());
  for (std::size_t c = 0; c < engine.cells.size(); ++c) {
    EXPECT_EQ(engine.cells[c].backend_used, api::BackendKind::kEngine);
    EXPECT_EQ(fast.cells[c].backend_used, api::BackendKind::kFastSim);
    ASSERT_EQ(engine.cells[c].runs.size(), fast.cells[c].runs.size());
    for (std::size_t r = 0; r < engine.cells[c].runs.size(); ++r) {
      const api::RunRecord& e = engine.cells[c].runs[r];
      const api::RunRecord& f = fast.cells[c].runs[r];
      EXPECT_EQ(e.rounds, f.rounds)
          << "cell " << c << " seed " << e.seed;
      EXPECT_EQ(e.total_rounds, f.total_rounds)
          << "cell " << c << " seed " << e.seed;
      EXPECT_EQ(e.names, f.names) << "cell " << c << " seed " << e.seed;
      // The fast sim's analytic delivery count must equal the engine's
      // measured one — mixed-backend sweep tables report real traffic.
      EXPECT_EQ(e.messages_delivered, f.messages_delivered)
          << "cell " << c << " seed " << e.seed;
      EXPECT_TRUE(e.bytes_measured);
      EXPECT_FALSE(f.bytes_measured);
    }
  }
}

TEST(Sweep, FastSimCellsMarkBytesAbsentInJson) {
  api::ExperimentSpec spec;
  spec.n_values = {64};
  spec.seeds = 2;
  spec.keep_runs = true;
  spec.backend = api::BackendKind::kFastSim;
  const std::string json = json_of(api::SweepRunner(spec).run());
  EXPECT_NE(json.find("\"bytes\":null"), std::string::npos);
  EXPECT_NE(json.find("\"max_payload_bytes\":null"), std::string::npos);
  EXPECT_EQ(json.find("\"bytes\":0"), std::string::npos);
}

TEST(Sweep, AcceptanceLargeNMultiThreaded) {
  // ISSUE 1 acceptance: a multi-threaded sweep at n=4096 over >= 20 seeds
  // completes with deterministic, backend-validated results. kAuto routes
  // the crash-free tree cells to the fast single-view backend (every run of
  // which is re-validated for validity/uniqueness), so this is fast.
  api::ExperimentSpec spec;
  spec.algorithms = {Algorithm::kBallsIntoLeaves};
  spec.n_values = {4096};
  spec.seeds = 20;
  spec.threads = 8;
  spec.keep_runs = true;
  const api::SweepResult result = api::SweepRunner(spec).run();

  ASSERT_EQ(result.cells.size(), 1u);
  ASSERT_EQ(result.total_runs, 20u);
  const api::CellSummary& cell = result.cells.front();
  EXPECT_EQ(cell.backend_used, api::BackendKind::kFastSim);
  EXPECT_EQ(cell.rounds.count, 20u);
  // Theorem 2 head-room: 4096 balls decide in O(log log n) rounds.
  EXPECT_LE(cell.rounds.max, 1 + 2 * 10);

  spec.threads = 1;
  const api::SweepResult serial = api::SweepRunner(spec).run();
  EXPECT_EQ(json_of(result), json_of(serial));
}

TEST(Sweep, AutoPicksEngineForSmallOrAdversarialCells) {
  api::CellConfig cell;
  cell.algorithm = Algorithm::kBallsIntoLeaves;
  cell.n = 64;  // below the auto threshold
  EXPECT_EQ(api::select_backend(cell), api::BackendKind::kEngine);
  cell.n = api::kAutoFastSimMinN;
  EXPECT_EQ(api::select_backend(cell), api::BackendKind::kFastSim);
  // Schedule-only crash adversaries have their own (higher) auto
  // threshold: below it the engine still measures real traffic, above it
  // the crash-capable fast path takes over.
  cell.adversary.kind = AdversaryKind::kEager;
  EXPECT_EQ(api::select_backend(cell), api::BackendKind::kEngine);
  cell.n = api::kAutoFastSimCrashMinN;
  EXPECT_EQ(api::select_backend(cell), api::BackendKind::kFastSim);
  // Protocol-aware targeted adversaries ride the traffic-oracle fast path
  // behind their own threshold.
  cell.adversary.kind = AdversaryKind::kTargetedWinner;
  cell.n = api::kAutoFastSimTargetedMinN - 1;
  EXPECT_EQ(api::select_backend(cell), api::BackendKind::kEngine);
  cell.n = api::kAutoFastSimTargetedMinN;
  EXPECT_EQ(api::select_backend(cell), api::BackendKind::kFastSim);
  cell.adversary.kind = AdversaryKind::kNone;
  cell.algorithm = Algorithm::kGossip;  // not tree-based: engine only
  cell.n = api::kAutoFastSimMinN;
  EXPECT_EQ(api::select_backend(cell), api::BackendKind::kEngine);
}

TEST(Sweep, ExplicitFastSimOnIncompatibleCellThrows) {
  api::ExperimentSpec spec;
  spec.algorithms = {Algorithm::kGossip};
  spec.backend = api::BackendKind::kFastSim;
  EXPECT_THROW((void)api::SweepRunner(spec), ContractViolation);

  // Every registered crash adversary is in the fast domain now — the
  // schedule-only kinds via schedule replay, the targeted kinds via the
  // traffic oracle.
  spec.algorithms = {Algorithm::kBallsIntoLeaves};
  spec.adversaries = {harness::AdversarySpec{
      .kind = AdversaryKind::kTargetedWinner, .crashes = 2, .per_round = 1}};
  EXPECT_NO_THROW((void)api::SweepRunner(spec));

  spec.adversaries = {harness::AdversarySpec{
      .kind = AdversaryKind::kBurst, .crashes = 2, .when = 1}};
  EXPECT_NO_THROW((void)api::SweepRunner(spec));
}

TEST(Sweep, ExplicitFastSimFailsFastWithActionableDiagnostic) {
  // An explicit --backend fast-sim request on an incompatible cell must
  // fail in select_backend with a one-line message naming the incompatible
  // component, not deep inside a run.
  api::CellConfig cell;
  cell.algorithm = Algorithm::kGossip;
  cell.backend = api::BackendKind::kFastSim;
  try {
    (void)api::select_backend(cell);
    FAIL() << "gossip cell must be rejected";
  } catch (const ContractViolation& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("gossip"), std::string::npos) << what;
    EXPECT_NE(what.find("not tree-based"), std::string::npos) << what;
    EXPECT_NE(what.find("engine"), std::string::npos) << what;
  }

  cell.algorithm = Algorithm::kBallsIntoLeaves;
  cell.max_rounds = 8;
  try {
    (void)api::select_backend(cell);
    FAIL() << "round-capped cell must be rejected";
  } catch (const ContractViolation& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("round cap"), std::string::npos) << what;
  }
  cell.max_rounds = 0;
  EXPECT_TRUE(api::fast_sim_incompatibility(cell).empty());
  cell.label_stride = 2;
  EXPECT_NE(api::fast_sim_incompatibility(cell).find("labelling"),
            std::string::npos);
}

TEST(Sweep, SeedModesAssignSeedsAsDocumented) {
  api::ExperimentSpec spec = mixed_grid_spec();
  spec.seed_base = 7;
  EXPECT_EQ(api::cell_run_seed(spec, 0, 0), 7u);
  EXPECT_EQ(api::cell_run_seed(spec, 3, 2), 9u);  // shared across cells

  spec.seed_mode = api::SeedMode::kPerCell;
  EXPECT_NE(api::cell_run_seed(spec, 0, 0), api::cell_run_seed(spec, 1, 0));
  // Still deterministic.
  EXPECT_EQ(api::cell_run_seed(spec, 1, 3), api::cell_run_seed(spec, 1, 3));
}

TEST(Sweep, SummariesOnlyUnlessKeepRuns) {
  api::ExperimentSpec spec;
  spec.n_values = {16};
  spec.seeds = 2;
  const api::SweepResult result = api::SweepRunner(spec).run();
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_TRUE(result.cells.front().runs.empty());
  EXPECT_EQ(result.cells.front().rounds.count, 2u);
}

TEST(Sweep, AdversarialCellsReportCrashes) {
  api::ExperimentSpec spec;
  spec.n_values = {32};
  spec.adversaries = {harness::AdversarySpec{
      .kind = AdversaryKind::kBurst, .crashes = 8, .when = 1}};
  spec.seeds = 3;
  const api::SweepResult result = api::SweepRunner(spec).run();
  EXPECT_GT(result.cells.front().crashes.mean, 0.0);
}

TEST(Sweep, JsonIsWellFormedEnoughToRoundTripKeys) {
  api::ExperimentSpec spec;
  spec.n_values = {16};
  spec.seeds = 2;
  spec.keep_runs = true;
  const std::string json = json_of(api::SweepRunner(spec).run());
  for (const char* key :
       {"\"total_runs\":", "\"cells\":", "\"algorithm\":\"balls-into-leaves\"",
        "\"backend\":\"engine\"", "\"metrics\":", "\"rounds\":", "\"runs\":",
        "\"seed\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace bil
