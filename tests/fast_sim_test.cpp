// Tests for the single-view fast simulator run without an adversary or with
// init-round and position-round bursts, including its headline guarantee:
// bit-identical equivalence with the message-passing engine on
// failure-free runs with the same seed.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/fast_sim_crash.h"
#include "harness/runner.h"

namespace bil {
namespace {

using core::CrashFastSimResult;
using core::PathPolicy;
using sim::SubsetPolicy;

/// Phases executed: one init round, then two rounds per phase.
std::uint32_t phases(const CrashFastSimResult& result) {
  return (result.total_rounds - 1) / 2;
}

CrashFastSimResult run(std::uint32_t n, std::uint64_t seed,
                       PathPolicy policy = PathPolicy::kRandomWeighted,
                       core::PhaseObserver* observer = nullptr) {
  return core::run_fast_sim_crash(
      {.n = n, .seed = seed, .policy = policy, .observer = observer},
      nullptr);
}

/// `crashes` lowest-id balls crash in round `when`, their final broadcast
/// delivered per `subset`: the registered burst adversary, replayed exactly
/// as the engine would face it.
CrashFastSimResult run_burst(std::uint32_t n, std::uint64_t seed,
                             PathPolicy policy, std::uint32_t crashes,
                             sim::RoundNumber when, SubsetPolicy subset,
                             core::PhaseObserver* observer = nullptr) {
  const std::unique_ptr<sim::Adversary> adversary = harness::make_adversary(
      {.kind = harness::AdversaryKind::kBurst,
       .crashes = crashes,
       .when = when,
       .subset = subset},
      n, seed);
  return core::run_fast_sim_crash({.n = n,
                                   .seed = seed,
                                   .policy = policy,
                                   .max_crashes = crashes,
                                   .observer = observer},
                                  adversary.get());
}

void expect_valid_names(const CrashFastSimResult& result, std::uint32_t n) {
  ASSERT_TRUE(result.completed);
  std::vector<bool> used(n + 1, false);
  for (std::uint64_t name : result.names) {
    if (name == 0) {
      continue;  // crashed
    }
    ASSERT_GE(name, 1u);
    ASSERT_LE(name, n);
    EXPECT_FALSE(used[name]) << "duplicate name " << name;
    used[name] = true;
  }
}

std::uint32_t count_crashed(const CrashFastSimResult& result) {
  std::uint32_t crashed = 0;
  for (std::uint64_t name : result.names) {
    crashed += name == 0 ? 1 : 0;
  }
  return crashed;
}

void expect_same_snapshot(const core::PhaseSnapshot& observed,
                          const core::PhaseSnapshot& expected,
                          const std::string& what) {
  EXPECT_EQ(observed.phase, expected.phase) << what;
  EXPECT_EQ(observed.balls_total, expected.balls_total) << what;
  EXPECT_EQ(observed.balls_inner, expected.balls_inner) << what;
  EXPECT_EQ(observed.bmax, expected.bmax) << what;
  EXPECT_EQ(observed.max_path_load, expected.max_path_load) << what;
}

TEST(FastSim, TrivialSizes) {
  for (std::uint32_t n : {1u, 2u, 3u}) {
    const CrashFastSimResult result = run(n, 5);
    expect_valid_names(result, n);
  }
}

TEST(FastSim, AssignsAllNamesFaultFree) {
  for (std::uint32_t n : {16u, 100u, 1024u}) {
    const CrashFastSimResult result = run(n, 11);
    expect_valid_names(result, n);
    EXPECT_EQ(count_crashed(result), 0u);  // tight renaming: every name used
  }
}

TEST(FastSim, DeterministicForSeed) {
  const CrashFastSimResult a = run(256, 77);
  const CrashFastSimResult b = run(256, 77);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  EXPECT_EQ(a.names, b.names);
}

TEST(FastSim, MatchesEngineExecutionFaultFree) {
  // The core cross-check: engine run and fast-sim run with the same seed
  // must produce the same names, rounds, total rounds, delivery count and
  // per-phase snapshots, for every tree policy. This pins the fast
  // simulator to the real protocol. The sizes straddle the powers of two,
  // where the tree shape changes.
  const std::vector<std::pair<harness::Algorithm, PathPolicy>> pairs = {
      {harness::Algorithm::kBallsIntoLeaves, PathPolicy::kRandomWeighted},
      {harness::Algorithm::kEarlyTerminating, PathPolicy::kEarlyTerminating},
      {harness::Algorithm::kRankDescent, PathPolicy::kRankedSlack},
      {harness::Algorithm::kHalving, PathPolicy::kHalvingSplit},
  };
  for (const auto& [algorithm, policy] : pairs) {
    for (std::uint32_t n : {1u, 2u, 3u, 4u, 16u, 37u, 63u, 64u, 65u}) {
      for (std::uint64_t seed : {1ULL, 9ULL}) {
        const std::string what = std::string(to_string(algorithm)) +
                                 " n=" + std::to_string(n) +
                                 " seed=" + std::to_string(seed);
        harness::RunConfig config;
        config.algorithm = algorithm;
        config.n = n;
        config.seed = seed;
        config.observe = true;
        const harness::RunSummary engine_run = harness::run_renaming(config);
        core::RecordingObserver observer;
        const CrashFastSimResult fast = run(n, seed, policy, &observer);
        ASSERT_TRUE(fast.completed) << what;
        EXPECT_EQ(fast.rounds, engine_run.rounds) << what;
        EXPECT_EQ(fast.total_rounds, engine_run.total_rounds) << what;
        EXPECT_EQ(fast.deliveries, engine_run.messages_delivered) << what;
        for (std::uint32_t i = 0; i < n; ++i) {
          EXPECT_EQ(fast.names[i], engine_run.raw.outcomes[i].name)
              << what << " ball=" << i;
        }
        ASSERT_EQ(observer.snapshots().size(), engine_run.phases.size())
            << what;
        for (std::size_t p = 0; p < engine_run.phases.size(); ++p) {
          expect_same_snapshot(observer.snapshots()[p], engine_run.phases[p],
                               what + " phase=" + std::to_string(p + 1));
        }
      }
    }
  }
}

TEST(FastSim, ScalesToLargeN) {
  const CrashFastSimResult result = run(1u << 16, 3);
  expect_valid_names(result, 1u << 16);
  // Theorem 2 head-room check: 2^16 balls should need very few phases.
  EXPECT_LE(phases(result), 12u);
}

TEST(FastSim, PhaseSnapshotsAreComplete) {
  core::RecordingObserver observer;
  const CrashFastSimResult result =
      run(512, 4, PathPolicy::kRandomWeighted, &observer);
  const std::vector<core::PhaseSnapshot>& snapshots = observer.snapshots();
  ASSERT_EQ(snapshots.size(), phases(result));
  EXPECT_EQ(snapshots.back().balls_inner, 0u);
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[i].phase, i + 1);
  }
}

TEST(FastSim, EarlyTerminatingIsOnePhaseFaultFree) {
  for (std::uint32_t n : {8u, 128u, 4096u}) {
    const CrashFastSimResult result = run(n, 21, PathPolicy::kEarlyTerminating);
    EXPECT_EQ(phases(result), 1u) << "n=" << n;
  }
}

TEST(FastSim, RankDescentIsOrderPreservingFaultFree) {
  const CrashFastSimResult result = run(64, 2, PathPolicy::kRankedSlack);
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(result.names[i], i + 1);
  }
}

TEST(FastSim, HalvingDescendsOneLevelPerPhase) {
  for (std::uint32_t n : {16u, 64u, 256u}) {
    const CrashFastSimResult result = run(n, 2, PathPolicy::kHalvingSplit);
    EXPECT_EQ(phases(result), tree::TreeShape(n).height()) << "n=" << n;
  }
}

// ---- Init-round crashes (Theorem 4's setting) -------------------------------

TEST(FastSim, InitCrashesStillRename) {
  for (SubsetPolicy subset : {SubsetPolicy::kAlternating,
                              SubsetPolicy::kRandomHalf,
                              SubsetPolicy::kSilent}) {
    const CrashFastSimResult result =
        run_burst(256, 5, PathPolicy::kEarlyTerminating, 32, 0, subset);
    expect_valid_names(result, 256);
    EXPECT_EQ(result.crashes, 32u);
    EXPECT_EQ(count_crashed(result), 32u);
  }
}

TEST(FastSim, SilentInitCrashesCauseNoCollisions) {
  // A silent crasher is invisible: ranks do not shift, so the §6 scheme
  // still finishes in one phase.
  const CrashFastSimResult result = run_burst(
      512, 6, PathPolicy::kEarlyTerminating, 100, 0, SubsetPolicy::kSilent);
  EXPECT_EQ(phases(result), 1u);
}

TEST(FastSim, PartialInitDeliveryCausesCollisions) {
  // The paper §6: the lowest ball crashing while delivering to every second
  // ball shifts half the ranks, so phase 1 alone cannot finish.
  const CrashFastSimResult result = run_burst(
      512, 6, PathPolicy::kEarlyTerminating, 1, 0, SubsetPolicy::kAlternating);
  expect_valid_names(result, 512);
  EXPECT_GT(phases(result), 1u);
}

TEST(FastSim, CollisionDepthMatchesAppendixB) {
  // Appendix B: with f init failures, phase-1 collisions are confined to
  // depth >= log n - ceil(log f) — i.e. the surviving contention lives in
  // subtrees of size O(f). Check via the phase-1 snapshot: every remaining
  // inner ball sits deep.
  core::RecordingObserver observer;
  const CrashFastSimResult result =
      run_burst(1024, 9, PathPolicy::kEarlyTerminating,  // log n = 10
                8, 0, SubsetPolicy::kRandomHalf,         // ceil(log f) = 3
                &observer);
  expect_valid_names(result, 1024);
  // bmax after phase 1 is at most f+1 (at most f rank shifts can pile up).
  ASSERT_FALSE(observer.snapshots().empty());
  EXPECT_LE(observer.snapshots()[0].bmax, 9u);
}

// ---- Crashes announced to everyone -----------------------------------------

TEST(FastSim, CleanCrashesMidRun) {
  // Round 2 is phase 1's position round; kAll delivers the victims' final
  // broadcast to everyone, so every view drops them together.
  const CrashFastSimResult result = run_burst(
      256, 13, PathPolicy::kRandomWeighted, 64, 2, SubsetPolicy::kAll);
  expect_valid_names(result, 256);
  EXPECT_EQ(result.crashes, 64u);
  const std::uint32_t survivors = 256u - count_crashed(result);
  EXPECT_EQ(survivors, 256u - 64u);
}

TEST(FastSim, RejectsBadOptions) {
  EXPECT_THROW((void)core::run_fast_sim_crash({.n = 0}, nullptr),
               ContractViolation);
  EXPECT_THROW(
      (void)core::run_fast_sim_crash({.n = 4, .max_crashes = 4}, nullptr),
      ContractViolation);
}

}  // namespace
}  // namespace bil
