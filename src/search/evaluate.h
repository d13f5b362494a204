// Scores one genome: run it, extract the objective.
//
// Routing mirrors BackendKind::kAuto (api/backend.h): candidates whose
// attack is symbolically replayable — tree algorithm, no Byzantine window —
// run on the fast backends at or above `fast_sim_min_n`
// (core::run_fast_sim_crash for schedule-mode genomes, run_fast_sim_targeted
// for the targeted modes), which is what makes thousands of evaluations
// per search budget feasible; everything else takes the exact engine. The
// two executors are bit-identical on the shared domain
// (tests/fastsim_crash_test.cpp, tests/fastsim_targeted_test.cpp, and
// contract_test's replay-bit-identity suite re-asserts it for searched
// genomes specifically), so a schedule found on the fast path replays
// exactly on the engine and vice versa.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "search/genome.h"

namespace bil::search {

/// What the optimizer maximizes.
enum class Objective : std::uint8_t {
  /// Rounds until the last correct process decided (the paper's metric) —
  /// the objective the O(log log n) contract is asserted against.
  kRounds,
  /// Namespace spread: (largest decided name) − (number of deciders). Zero
  /// for a tight renaming; crashes force holes the adversary tries to
  /// maximize.
  kNameGap,
  /// Total physical deliveries.
  kMessages,
};

[[nodiscard]] const char* to_string(Objective objective) noexcept;
[[nodiscard]] Objective parse_objective(std::string_view name);

struct EvalOptions {
  /// Fast-path threshold, mirroring kAutoFastSimCrashMinN /
  /// kAutoFastSimTargetedMinN (api/backend.h — both 8192 today). 0 forces
  /// the fast path for every compatible candidate (bit-identical, and the
  /// right choice for big search budgets); UINT32_MAX forces the engine.
  std::uint32_t fast_sim_min_n = 8192;
};

struct EvalOutcome {
  bool completed = false;
  std::uint32_t rounds = 0;
  std::uint32_t total_rounds = 0;
  std::uint32_t crashes = 0;
  std::uint64_t deliveries = 0;
  /// Decided name per process id (0 = crashed).
  std::vector<std::uint64_t> names;
  /// True when the symbolic fast backend executed this candidate.
  bool fast_path = false;
};

/// True when the genome's attack has an exact symbolic replay (tree-based
/// algorithm, no Byzantine window, and for a targeted mode a registered
/// kind with a fast-sim route) — the precondition for the fast path.
[[nodiscard]] bool fast_sim_capable(const ScheduleGenome& genome);

/// Runs the genome to completion and validates the renaming properties
/// (unique names within the algorithm's namespace bound, every survivor
/// decided). Throws ContractViolation on a malformed genome or a run that
/// violates the properties.
[[nodiscard]] EvalOutcome evaluate(const ScheduleGenome& genome,
                                   const EvalOptions& options = {});

/// The objective value of an outcome (higher = worse for the protocol =
/// better for the adversary).
[[nodiscard]] double score(const EvalOutcome& outcome, Objective objective);

}  // namespace bil::search
