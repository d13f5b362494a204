// Regression tests for the ablation knobs: the uniform-coin policy stays
// correct (just slower), and the label-order movement ablation reproduces a
// genuine uniqueness violation — pinning down that Definition 1's priority
// order is necessary for safety, not style.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/balls_into_leaves.h"
#include "core/fast_sim_crash.h"
#include "core/seeds.h"
#include "sim/adversaries.h"
#include "sim/engine.h"
#include "util/contract.h"

namespace bil {
namespace {

// ---- Uniform-coin ablation ---------------------------------------------------

TEST(UniformCoins, StillSolvesRenaming) {
  for (std::uint32_t n : {4u, 16u, 100u, 1024u}) {
    const auto result = core::run_fast_sim_crash(
        {.n = n, .seed = 3, .policy = core::PathPolicy::kRandomUniform},
        nullptr);
    EXPECT_TRUE(result.completed) << "n=" << n;
  }
}

TEST(UniformCoins, SlowerThanWeightedAtScale) {
  // Phases to completion: one init round, then two rounds per phase.
  const auto phases = [](core::PathPolicy policy, std::uint64_t seed) {
    return (core::run_fast_sim_crash(
                {.n = 1u << 14, .seed = seed, .policy = policy}, nullptr)
                .total_rounds -
            1) /
           2;
  };
  double weighted = 0;
  double uniform = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    weighted += phases(core::PathPolicy::kRandomWeighted, seed);
    uniform += phases(core::PathPolicy::kRandomUniform, seed);
  }
  EXPECT_LT(weighted, uniform);
}

// ---- Movement-order ablation ---------------------------------------------------

enum class TrialOutcome { kOk, kUniquenessViolation, kOtherFailure };

TrialOutcome run_trial(core::MovementOrder order, std::uint64_t seed) {
  const std::uint32_t n = 64;
  auto shape = tree::TreeShape::make(n);
  std::vector<std::unique_ptr<sim::ProcessBase>> processes;
  for (sim::ProcessId id = 0; id < n; ++id) {
    processes.push_back(std::make_unique<core::BallsIntoLeavesProcess>(
        core::BallsIntoLeavesProcess::Options{
            .num_names = n,
            .label = id,
            .seed = derive_seed(seed, core::kSeedDomainProcess, id),
            .movement_order = order,
            .shape = shape}));
  }
  auto adversary = std::make_unique<sim::EagerCrashAdversary>(
      sim::EagerCrashAdversary::Options{
          .start_round = 2,
          .per_round = 3,
          .subset_policy = sim::SubsetPolicy::kAlternating},
      derive_seed(seed, core::kSeedDomainAdversary, 0));
  sim::Engine engine(
      sim::EngineConfig{.num_processes = n, .max_crashes = n / 2},
      std::move(processes), std::move(adversary));
  try {
    const sim::RunResult result = engine.run();
    sim::validate_renaming(result, n);
    return TrialOutcome::kOk;
  } catch (const ContractViolation& violation) {
    return std::string(violation.what()).find("uniqueness") !=
                   std::string::npos
               ? TrialOutcome::kUniquenessViolation
               : TrialOutcome::kOtherFailure;
  }
}

TEST(MovementOrder, PaperOrderIsSafeAcrossTheSeedRange) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    EXPECT_EQ(run_trial(core::MovementOrder::kDepthThenLabel, seed),
              TrialOutcome::kOk)
        << "seed=" << seed;
  }
}

TEST(MovementOrder, LabelOrderViolatesUniqueness) {
  // The ablation is genuinely unsound: within this fixed seed range at
  // least one run ends with two correct balls deciding the same name.
  // (Deterministic: the run is a pure function of the seed.)
  std::uint32_t violations = 0;
  std::uint32_t other = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    switch (run_trial(core::MovementOrder::kLabelOnly, seed)) {
      case TrialOutcome::kUniquenessViolation:
        ++violations;
        break;
      case TrialOutcome::kOtherFailure:
        ++other;
        break;
      case TrialOutcome::kOk:
        break;
    }
  }
  EXPECT_GE(violations, 1u)
      << "the label-order ablation unexpectedly survived all seeds";
  EXPECT_EQ(other, 0u);
}

TEST(MovementOrder, DivergenceCounterStaysZeroUnderPaperOrder) {
  const std::uint32_t n = 32;
  auto shape = tree::TreeShape::make(n);
  std::vector<std::unique_ptr<sim::ProcessBase>> processes;
  for (sim::ProcessId id = 0; id < n; ++id) {
    processes.push_back(std::make_unique<core::BallsIntoLeavesProcess>(
        core::BallsIntoLeavesProcess::Options{
            .num_names = n,
            .label = id,
            .seed = derive_seed(5, core::kSeedDomainProcess, id),
            .shape = shape}));
  }
  auto adversary = std::make_unique<sim::EagerCrashAdversary>(
      sim::EagerCrashAdversary::Options{
          .start_round = 1,
          .per_round = 2,
          .subset_policy = sim::SubsetPolicy::kRandomHalf},
      derive_seed(5, core::kSeedDomainAdversary, 0));
  sim::Engine engine(
      sim::EngineConfig{.num_processes = n, .max_crashes = n / 2},
      std::move(processes), std::move(adversary));
  const sim::RunResult result = engine.run();
  sim::validate_renaming(result, n);
  for (sim::ProcessId id = 0; id < n; ++id) {
    if (!engine.is_crashed(id)) {
      EXPECT_EQ(dynamic_cast<const core::BallsIntoLeavesProcess&>(
                    engine.process(id))
                    .divergence_repairs(),
                0u)
          << "process " << id;
    }
  }
}

}  // namespace
}  // namespace bil
