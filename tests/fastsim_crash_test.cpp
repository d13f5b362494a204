// Cross-validation suite for the crash-capable fast backend
// (core/fast_sim_crash.h through api::FastSimBackend): for every tree
// algorithm × schedule-only crash adversary × subset policy on a shared
// grid, the fast path must reproduce the engine's run *exactly* — rounds,
// total rounds, committed crash count, the full decided-name vector, and
// the delivery count (engine-measured vs analytically derived).
//
// This is the executable form of the divergence model documented in
// core/fast_sim_crash.h: if ghosts, delivery classes or the adversary
// replay missed any channel through which subset-delivery divergence can
// reach an observable, some cell here diverges.
//
// The file also covers the bil_run flag-hardening satellite: range-checked
// uint32 flags must reject out-of-range values with a diagnostic instead of
// silently truncating through a static_cast.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/backend.h"
#include "core/fast_sim_crash.h"
#include "harness/runner.h"
#include "sim/engine.h"
#include "tree/shape.h"
#include "util/contract.h"
#include "util/flags.h"

namespace bil {
namespace {

using harness::Algorithm;
using harness::AdversaryKind;
using harness::AdversarySpec;

constexpr Algorithm kTreeAlgorithms[] = {
    Algorithm::kBallsIntoLeaves,
    Algorithm::kEarlyTerminating,
    Algorithm::kRankDescent,
    Algorithm::kHalving,
};

std::string describe(const api::CellConfig& cell, std::uint64_t seed) {
  std::string text = harness::to_string(cell.algorithm);
  text += " / ";
  text += harness::to_string(cell.adversary.kind);
  text += " (t=" + std::to_string(cell.adversary.crashes);
  text += ", when=" + std::to_string(cell.adversary.when);
  text += ", per_round=" + std::to_string(cell.adversary.per_round);
  text += ", subset=" +
          std::to_string(static_cast<int>(cell.adversary.subset));
  text += ") / n=" + std::to_string(cell.n);
  text += " / seed=" + std::to_string(seed);
  return text;
}

void expect_backends_match(const api::CellConfig& cell, std::uint64_t seed) {
  const api::EngineBackend engine;
  const api::FastSimBackend fast;
  const api::RunRecord expected = engine.run(cell, seed);
  const api::RunRecord observed = fast.run(cell, seed);
  const std::string what = describe(cell, seed);
  EXPECT_EQ(observed.rounds, expected.rounds) << what;
  EXPECT_EQ(observed.total_rounds, expected.total_rounds) << what;
  EXPECT_EQ(observed.crashes, expected.crashes) << what;
  EXPECT_EQ(observed.messages_delivered, expected.messages_delivered) << what;
  ASSERT_EQ(observed.names.size(), expected.names.size()) << what;
  for (std::size_t i = 0; i < expected.names.size(); ++i) {
    ASSERT_EQ(observed.names[i], expected.names[i])
        << what << " — ball " << i << " diverged";
  }
  // The fast path never materializes payloads.
  EXPECT_TRUE(expected.bytes_measured);
  EXPECT_FALSE(observed.bytes_measured);
}

api::CellConfig cell_for(Algorithm algorithm, std::uint32_t n,
                         AdversarySpec adversary) {
  api::CellConfig cell;
  cell.algorithm = algorithm;
  cell.n = n;
  cell.adversary = adversary;
  return cell;
}

// ---- Oblivious: pre-planned victims over a round horizon -------------------

TEST(FastSimCrash, MatchesEngineObliviousEverySubsetPolicy) {
  for (Algorithm algorithm : kTreeAlgorithms) {
    for (std::uint32_t n : {5u, 16u, 48u, 129u}) {
      for (sim::SubsetPolicy subset :
           {sim::SubsetPolicy::kSilent, sim::SubsetPolicy::kAlternating,
            sim::SubsetPolicy::kRandomHalf, sim::SubsetPolicy::kAll}) {
        for (std::uint64_t seed : {1ULL, 9001ULL}) {
          AdversarySpec spec;
          spec.kind = AdversaryKind::kOblivious;
          spec.crashes = n / 4;
          spec.horizon = 8;  // includes the init round
          spec.subset = subset;
          expect_backends_match(cell_for(algorithm, n, spec), seed);
        }
      }
    }
  }
}

// ---- Burst: all crashes in one round (init, path, or position round) -------

TEST(FastSimCrash, MatchesEngineBurstAtEveryRoundParity) {
  for (Algorithm algorithm : kTreeAlgorithms) {
    for (std::uint32_t n : {16u, 48u, 129u}) {
      // when=0 hits the init broadcast (Theorem 4's label-exchange attack),
      // when=1 the first candidate-path exchange, when=2 the first position
      // exchange — the three structurally different crash sites.
      for (sim::RoundNumber when : {0u, 1u, 2u}) {
        for (sim::SubsetPolicy subset :
             {sim::SubsetPolicy::kAlternating, sim::SubsetPolicy::kRandomHalf,
              sim::SubsetPolicy::kAll}) {
          AdversarySpec spec;
          spec.kind = AdversaryKind::kBurst;
          spec.crashes = n / 2;
          spec.when = when;
          spec.subset = subset;
          expect_backends_match(cell_for(algorithm, n, spec), 7);
        }
      }
    }
  }
}

// ---- Eager: k crashes per round until the budget runs dry ------------------

TEST(FastSimCrash, MatchesEngineEagerPerRoundCrashes) {
  for (Algorithm algorithm : kTreeAlgorithms) {
    for (std::uint32_t n : {16u, 48u, 129u}) {
      for (std::uint32_t per_round : {1u, 4u}) {
        AdversarySpec spec;
        spec.kind = AdversaryKind::kEager;
        spec.crashes = n / 3;
        spec.when = 0;
        spec.per_round = per_round;
        spec.subset = sim::SubsetPolicy::kRandomHalf;
        expect_backends_match(cell_for(algorithm, n, spec), 3);
      }
    }
  }
}

// ---- Sandwich: the §6 alternating-delivery attack, every round -------------

TEST(FastSimCrash, MatchesEngineSandwichAttack) {
  for (Algorithm algorithm : kTreeAlgorithms) {
    for (std::uint32_t n : {16u, 48u, 129u, 256u}) {
      for (std::uint32_t per_round : {1u, 2u}) {
        AdversarySpec spec;
        spec.kind = AdversaryKind::kSandwich;
        spec.crashes = n - 1;
        spec.per_round = per_round;
        expect_backends_match(cell_for(algorithm, n, spec), 11);
      }
    }
  }
}

// ---- The n = 2^12 anchor of the shared-domain grid -------------------------

TEST(FastSimCrash, MatchesEngineAtFourThousandBalls) {
  // One representative per adversary at n = 2^12 — the top of the grid the
  // ISSUE pins for cross-validation (larger n is fast-sim-only territory).
  const std::uint32_t n = 1u << 12;
  AdversarySpec oblivious;
  oblivious.kind = AdversaryKind::kOblivious;
  oblivious.crashes = 64;
  oblivious.subset = sim::SubsetPolicy::kRandomHalf;
  expect_backends_match(cell_for(Algorithm::kBallsIntoLeaves, n, oblivious),
                        5);
  AdversarySpec burst;
  burst.kind = AdversaryKind::kBurst;
  burst.crashes = 64;
  burst.when = 0;
  burst.subset = sim::SubsetPolicy::kAlternating;
  expect_backends_match(cell_for(Algorithm::kEarlyTerminating, n, burst), 5);
}

// ---- Fast-only scale smoke --------------------------------------------------

TEST(FastSimCrash, CrashCellsScaleBeyondTheEngine) {
  // No engine reference here (that is the point): the crash fast path must
  // stay valid — complete, tight surviving namespace, exact crash budget —
  // at sizes the exact engine cannot reach for adversarial cells.
  const std::uint32_t n = 1u << 16;
  const api::FastSimBackend fast;

  // Burst commits its whole budget in one round — the crash count is exact.
  AdversarySpec burst;
  burst.kind = AdversaryKind::kBurst;
  burst.crashes = 32;
  burst.when = 1;
  burst.subset = sim::SubsetPolicy::kAlternating;
  const api::RunRecord burst_record =
      fast.run(cell_for(Algorithm::kBallsIntoLeaves, n, burst), 1);
  EXPECT_EQ(burst_record.crashes, 32u);
  std::uint32_t named = 0;
  for (std::uint64_t name : burst_record.names) {
    named += name != 0 ? 1 : 0;
  }
  EXPECT_EQ(named, n - burst_record.crashes);

  // Eager spends 2 victims per round for as long as the run lasts; the
  // count is bounded by the budget and consistent with the name vector.
  AdversarySpec eager;
  eager.kind = AdversaryKind::kEager;
  eager.crashes = 32;
  eager.when = 0;
  eager.per_round = 2;
  eager.subset = sim::SubsetPolicy::kRandomHalf;
  const api::RunRecord eager_record =
      fast.run(cell_for(Algorithm::kBallsIntoLeaves, n, eager), 1);
  EXPECT_GE(eager_record.crashes, 2u);
  EXPECT_LE(eager_record.crashes, 32u);
  named = 0;
  for (std::uint64_t name : eager_record.names) {
    named += name != 0 ? 1 : 0;
  }
  EXPECT_EQ(named, n - eager_record.crashes);
}

// ---- Backend routing --------------------------------------------------------

TEST(FastSimCrash, AutoRoutesLargeCrashCellsToTheFastPath) {
  AdversarySpec spec;
  spec.kind = AdversaryKind::kOblivious;
  spec.crashes = 8;
  api::CellConfig cell = cell_for(Algorithm::kBallsIntoLeaves,
                                  api::kAutoFastSimCrashMinN, spec);
  EXPECT_EQ(api::select_backend(cell), api::BackendKind::kFastSim);
  cell.n = api::kAutoFastSimCrashMinN - 1;
  EXPECT_EQ(api::select_backend(cell), api::BackendKind::kEngine);
  // Crash-free cells keep their lower threshold.
  cell.adversary = {};
  cell.n = api::kAutoFastSimMinN;
  EXPECT_EQ(api::select_backend(cell), api::BackendKind::kFastSim);
}

TEST(FastSimCrash, TargetedAdversariesRideTheTrafficOraclePath) {
  // The protocol-aware targeted kinds joined the fast domain (typed round
  // traffic, core/fast_sim_targeted.h) behind their own auto threshold;
  // only non-tree algorithms remain engine-bound for crash cells.
  AdversarySpec spec;
  spec.kind = AdversaryKind::kTargetedWinner;
  spec.crashes = 8;
  api::CellConfig cell = cell_for(Algorithm::kBallsIntoLeaves, 1u << 15, spec);
  EXPECT_TRUE(api::fast_sim_compatible(cell));
  EXPECT_EQ(api::select_backend(cell), api::BackendKind::kFastSim);
  cell.n = api::kAutoFastSimTargetedMinN - 1;
  EXPECT_EQ(api::select_backend(cell), api::BackendKind::kEngine);
  cell.algorithm = Algorithm::kGossip;
  cell.n = 1u << 15;
  EXPECT_FALSE(api::fast_sim_compatible(cell));
  cell.backend = api::BackendKind::kFastSim;
  EXPECT_THROW((void)api::select_backend(cell), ContractViolation);
}

// ---- The CrashPlan contract: deliver_to is a set of in-range ids ----------

/// One crash in one round, with a hand-written delivery list.
struct FixedCrash {
  sim::RoundNumber when = 0;
  sim::ProcessId victim = 0;
  std::vector<sim::ProcessId> deliver_to;
};

/// Commits a FixedCrash exactly as given (no make_delivery_subset clean-up).
class FixedCrashAdversary final : public sim::Adversary {
 public:
  explicit FixedCrashAdversary(FixedCrash crash) : crash_(std::move(crash)) {}

  void schedule(const sim::RoundView& view, sim::CrashPlan& plan) override {
    if (view.round() == crash_.when) {
      plan.crash(crash_.victim, crash_.deliver_to);
    }
  }

 private:
  FixedCrash crash_;
};

struct FixedCrashRun {
  std::uint64_t deliveries = 0;
  std::vector<std::uint64_t> names;
};

FixedCrashRun run_engine_fixed(std::uint32_t n, std::uint64_t seed,
                               const FixedCrash& crash) {
  harness::RunConfig config;
  config.algorithm = Algorithm::kBallsIntoLeaves;
  config.n = n;
  config.seed = seed;
  config.adversary.crashes = 1;
  sim::Engine engine(
      sim::EngineConfig{.num_processes = n, .max_crashes = 1},
      harness::make_processes(config, tree::TreeShape::make(n)),
      std::make_unique<FixedCrashAdversary>(crash));
  const sim::RunResult result = engine.run();
  FixedCrashRun run;
  run.deliveries = result.metrics.total_deliveries;
  for (const sim::ProcessOutcome& outcome : result.outcomes) {
    run.names.push_back(outcome.decided ? outcome.name : 0);
  }
  return run;
}

FixedCrashRun run_fast_fixed(std::uint32_t n, std::uint64_t seed,
                             const FixedCrash& crash) {
  core::CrashFastSimOptions options;
  options.n = n;
  options.seed = seed;
  options.policy = core::PathPolicy::kRandomWeighted;
  options.max_crashes = 1;
  FixedCrashAdversary adversary(crash);
  const core::CrashFastSimResult result =
      core::run_fast_sim_crash(options, &adversary);
  return FixedCrashRun{result.deliveries, result.names};
}

TEST(FastSimCrash, DuplicateRecipientsCountOnceLikeTheEngine) {
  // {1,1,2,3,3,5} names four distinct recipients; counting the repeats
  // would add two deliveries the engine never makes.
  for (sim::RoundNumber when : {0u, 1u, 2u}) {
    const FixedCrash crash{when, 0, {1, 1, 2, 3, 3, 5}};
    for (std::uint64_t seed : {1ULL, 7ULL, 9001ULL}) {
      const FixedCrashRun engine = run_engine_fixed(16, seed, crash);
      const FixedCrashRun fast = run_fast_fixed(16, seed, crash);
      const std::string what = "crash round " + std::to_string(when) +
                               ", seed " + std::to_string(seed);
      EXPECT_EQ(fast.deliveries, engine.deliveries) << what;
      EXPECT_EQ(fast.names, engine.names) << what;
    }
  }
}

TEST(FastSimCrash, OutOfRangeRecipientIsRejectedLikeTheEngine) {
  for (sim::RoundNumber when : {0u, 1u, 2u}) {
    const FixedCrash crash{when, 0, {2, 16}};
    for (const bool fast : {false, true}) {
      try {
        if (fast) {
          (void)run_fast_fixed(16, 1, crash);
        } else {
          (void)run_engine_fixed(16, 1, crash);
        }
        ADD_FAILURE() << (fast ? "fast sim" : "engine")
                      << " accepted recipient 16 at n = 16, round " << when;
      } catch (const ContractViolation& violation) {
        EXPECT_NE(std::string(violation.what())
                      .find("crash delivery recipient out of range"),
                  std::string::npos)
            << violation.what();
      }
    }
  }
}

// ---- CLI flag hardening (bil_run numeric flags) -----------------------------

TEST(FlagHardening, Uint32FlagsRejectOutOfRangeValues) {
  std::uint32_t crashes = 0;
  FlagSet flags("test", "flag-hardening test");
  flags.add_uint32("crashes", &crashes, "crash budget");

  const char* overflow[] = {"--crashes=4294967296"};
  EXPECT_THROW((void)flags.parse(1, overflow), ContractViolation);
  const char* huge[] = {"--crashes=99999999999999"};
  EXPECT_THROW((void)flags.parse(1, huge), ContractViolation);
  const char* negative[] = {"--crashes=-1"};
  EXPECT_THROW((void)flags.parse(1, negative), ContractViolation);
  const char* junk[] = {"--crashes=12abc"};
  EXPECT_THROW((void)flags.parse(1, junk), ContractViolation);

  const char* max_ok[] = {"--crashes=4294967295"};
  EXPECT_TRUE(flags.parse(1, max_ok));
  EXPECT_EQ(crashes, 4294967295u);
  const char* ok[] = {"--crashes=64"};
  EXPECT_TRUE(flags.parse(1, ok));
  EXPECT_EQ(crashes, 64u);
}

TEST(FlagHardening, Uint32RejectionNamesTheFlag) {
  std::uint32_t value = 0;
  FlagSet flags("test", "diagnostic test");
  flags.add_uint32("burst-round", &value, "round");
  const char* overflow[] = {"--burst-round=5000000000"};
  try {
    (void)flags.parse(1, overflow);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& error) {
    EXPECT_NE(std::string(error.what()).find("burst-round"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace bil
