// End-to-end integration tests: the paper's comparative and analytic claims,
// checked at test scale. The comparative ones carry generous margins; the
// bil_report presets check them at full scale (docs/results.md). The
// analytic ones (Lemmas 4-10, Appendix B) are checked only here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/balls_into_leaves.h"
#include "core/fast_sim_crash.h"
#include "core/seeds.h"
#include "harness/runner.h"
#include "sim/adversaries.h"
#include "sim/engine.h"
#include "stats/binomial.h"
#include "stats/fit.h"
#include "tree/shape.h"
#include "util/contract.h"
#include "util/math.h"

namespace bil {
namespace {

using harness::AdversaryKind;
using harness::AdversarySpec;
using harness::Algorithm;
using harness::RunConfig;

/// Phases a fast-sim run executed: one init round, then two rounds each.
std::uint32_t phases(const core::CrashFastSimResult& result) {
  return (result.total_rounds - 1) / 2;
}

/// Phase snapshots of crash-free BiL runs on the fast sim, n = 2^10, 2^12,
/// 2^14 and 2^16, seeds 1-10 each: the data of the contention-decay and
/// path-escape claims (Lemmas 4-10). Built once and shared.
struct GridCell {
  std::uint32_t n = 0;
  std::vector<std::vector<core::PhaseSnapshot>> runs;  // one per seed
};

const std::vector<GridCell>& contention_grid() {
  static const std::vector<GridCell> grid = [] {
    std::vector<GridCell> cells;
    for (std::uint32_t exp = 10; exp <= 16; exp += 2) {
      GridCell& cell = cells.emplace_back();
      cell.n = 1u << exp;
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        core::RecordingObserver observer;
        const auto result = core::run_fast_sim_crash(
            {.n = cell.n, .seed = seed, .observer = &observer}, nullptr);
        BIL_REQUIRE(result.completed && !observer.snapshots().empty(),
                    "contention grid run did not complete");
        cell.runs.push_back(observer.snapshots());
      }
    }
    return cells;
  }();
  return grid;
}

double mean_rounds(Algorithm algorithm, std::uint32_t n,
                   std::uint32_t seeds,
                   AdversarySpec adversary = {}) {
  double total = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    RunConfig config;
    config.algorithm = algorithm;
    config.n = n;
    config.seed = seed;
    config.adversary = adversary;
    total += harness::run_renaming(config).rounds;
  }
  return total / seeds;
}

TEST(Separation, BiLBeatsLinearGossipBadly) {
  // n = 128: gossip needs 128 rounds, BiL needs ~9.
  const double bil = mean_rounds(Algorithm::kBallsIntoLeaves, 128, 3);
  const double gossip = mean_rounds(Algorithm::kGossip, 128, 1);
  EXPECT_LT(bil * 5, gossip);
}

TEST(Separation, BiLBeatsHalvingAtModerateN) {
  // Halving pays one phase per level (2·log n rounds); BiL converges in a
  // near-constant number of phases.
  const double bil = mean_rounds(Algorithm::kBallsIntoLeaves, 512, 3);
  const double halving = mean_rounds(Algorithm::kHalving, 512, 1);
  EXPECT_LT(bil, halving);
}

TEST(Separation, SandwichForcesRankDescentCollisions) {
  // §6: the lowest-labelled ball crashing mid-label-exchange (delivered to
  // every second peer) shifts half the ranks, so the deterministic scheme
  // collides and needs extra phases — while a *silent* init crash shifts no
  // rank and costs it nothing.
  const AdversarySpec sandwich{.kind = AdversaryKind::kSandwich,
                               .crashes = 63,
                               .per_round = 1};
  const double attacked =
      mean_rounds(Algorithm::kRankDescent, 64, 4, sandwich);
  EXPECT_GT(attacked, 3.0);

  const AdversarySpec silent{.kind = AdversaryKind::kBurst,
                             .crashes = 8,
                             .when = 0,
                             .subset = sim::SubsetPolicy::kSilent};
  const double unshaken =
      mean_rounds(Algorithm::kRankDescent, 64, 4, silent);
  EXPECT_DOUBLE_EQ(unshaken, 3.0);
}

TEST(Theorem2Shape, PhasesGrowMuchSlowerThanLogN) {
  // Fast-sim sweep n = 2^6..2^16: the log-model slope of the phase count
  // must be far below the halving baseline's 1-level-per-phase slope, and
  // the absolute phase count must stay tiny at every size.
  std::vector<double> log_n;
  std::vector<double> phase_counts;
  for (std::uint32_t exp = 6; exp <= 16; exp += 2) {
    const std::uint32_t n = 1u << exp;
    const auto result =
        core::run_fast_sim_crash({.n = n, .seed = 17 + exp}, nullptr);
    ASSERT_TRUE(result.completed);
    log_n.push_back(exp);
    phase_counts.push_back(phases(result));
    EXPECT_LE(phases(result), 12u) << "n=2^" << exp;
  }
  const stats::LinearFit fit = stats::fit_linear(log_n, phase_counts);
  EXPECT_LT(fit.slope, 0.5) << "phase count grows too fast with log n";
}

TEST(Theorem3, EarlyTerminatingIsConstantFaultFree) {
  for (std::uint32_t exp = 4; exp <= 14; exp += 2) {
    const auto result = core::run_fast_sim_crash(
        {.n = 1u << exp,
         .seed = 5,
         .policy = core::PathPolicy::kEarlyTerminating},
        nullptr);
    EXPECT_EQ(result.total_rounds, 3u) << "n=2^" << exp;
  }
}

TEST(Theorem4Shape, RoundsTrackFailuresNotN) {
  // Fix n = 4096, sweep f: the phase count must grow with f only, and
  // stay near-constant once f is small relative to n. The f lowest balls
  // crash during the init broadcast, each seen by a random half.
  const std::uint32_t n = 4096;
  const std::uint64_t seed = 23;
  std::vector<std::uint32_t> phases_at_f;
  for (std::uint32_t f : {1u, 16u, 256u, 2048u}) {
    const auto adversary = harness::make_adversary(
        {.kind = AdversaryKind::kBurst,
         .crashes = f,
         .when = 0,
         .subset = sim::SubsetPolicy::kRandomHalf},
        n, seed);
    const auto result = core::run_fast_sim_crash(
        {.n = n,
         .seed = seed,
         .policy = core::PathPolicy::kEarlyTerminating,
         .max_crashes = f},
        adversary.get());
    ASSERT_TRUE(result.completed);
    phases_at_f.push_back(phases(result));
  }
  // Few failures -> very few phases; the full-failure case stays sane too.
  EXPECT_LE(phases_at_f[0], 3u);
  EXPECT_LE(phases_at_f[1], 5u);
  EXPECT_LE(phases_at_f.back(), 12u);
}

TEST(Lemma6Shape, ContentionCollapsesDoublyExponentially) {
  // bmax after phase 1 is ~sqrt(n·log n); after a couple more phases it
  // must be polylog (the paper's O(log² n) w.h.p. at c₂·log log n phases).
  const std::uint32_t n = 1u << 14;
  core::RecordingObserver observer;
  const auto result = core::run_fast_sim_crash(
      {.n = n, .seed = 31, .observer = &observer}, nullptr);
  ASSERT_TRUE(result.completed);
  const std::vector<core::PhaseSnapshot>& snapshots = observer.snapshots();
  ASSERT_GE(snapshots.size(), 3u);
  const double lemma4 = stats::lemma4_contention_bound(n, 0, 3.0);
  EXPECT_LE(snapshots[0].bmax, lemma4);
  const double lemma6 = stats::lemma6_contention_bound(n, 2.0);
  EXPECT_LE(snapshots[2].bmax, lemma6);

  // The same bounds hold for the worst seed at every size of the grid. A
  // run that finished before phase 3 has every ball at a leaf by then.
  for (const GridCell& cell : contention_grid()) {
    std::uint32_t worst_phase1 = 0;
    std::uint32_t worst_phase3 = 0;
    for (const std::vector<core::PhaseSnapshot>& run : cell.runs) {
      worst_phase1 = std::max(worst_phase1, run[0].bmax);
      if (run.size() >= 3) {
        worst_phase3 = std::max(worst_phase3, run[2].bmax);
      }
    }
    EXPECT_LE(worst_phase1, stats::lemma4_contention_bound(cell.n, 0, 3.0))
        << "n=" << cell.n;
    EXPECT_LE(worst_phase3, stats::lemma6_contention_bound(cell.n, 2.0))
        << "n=" << cell.n;
  }
}

TEST(Section52, PathsDrainAtAConstantRate) {
  // Lemmas 7-10: every two phases a constant fraction of the balls still on
  // inner nodes escapes to the leaves, so the paths drain within O(log M)
  // phases. Over the grid's seeds, the mean inner-ball count at phase p
  // (over the runs still going) is at most half of phase p-2's.
  for (const GridCell& cell : contention_grid()) {
    std::vector<double> mean_inner;
    for (std::size_t phase = 0;; ++phase) {
      double total = 0;
      std::uint32_t runs = 0;
      for (const std::vector<core::PhaseSnapshot>& run : cell.runs) {
        if (phase < run.size()) {
          total += run[phase].balls_inner;
          ++runs;
        }
      }
      if (runs == 0) {
        break;
      }
      mean_inner.push_back(total / runs);
    }
    ASSERT_GE(mean_inner.size(), 3u) << "n=" << cell.n;
    for (std::size_t phase = 2; phase < mean_inner.size(); ++phase) {
      if (mean_inner[phase - 2] > 0) {
        EXPECT_LE(mean_inner[phase], 0.5 * mean_inner[phase - 2])
            << "n=" << cell.n << " phase " << phase + 1;
      }
    }
  }
}

TEST(AppendixB, PhaseOneShiftsRanksByAtMostF) {
  // The early-terminating extension's first phase is deterministic: each
  // ball targets the leaf its local rank indexes (§6). A ball that misses
  // k <= f of the init-round crashers has its rank shifted by at most k,
  // so after round 1 every survivor's target lies within f leaves of its
  // survivor rank, and no leaf is claimed by more than f + 1 balls. Here f
  // random balls crash mid-init-broadcast, each seen by a random half. Both
  // bounds are exact, and the runs reach them (shift f for f <= 8, f + 1
  // claims for f <= 2), so no slack.
  const std::uint32_t n = 1024;
  const auto shape = tree::TreeShape::make(n);
  for (std::uint32_t f = 1; f <= 256; f *= 2) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      RunConfig config;
      config.algorithm = Algorithm::kEarlyTerminating;
      config.n = n;
      config.seed = seed;
      sim::Engine engine(
          sim::EngineConfig{.num_processes = n, .max_crashes = f},
          harness::make_processes(config, shape),
          std::make_unique<sim::ObliviousCrashAdversary>(
              n,
              sim::ObliviousCrashAdversary::Options{
                  .crashes = f,
                  .horizon_rounds = 1,
                  .subset_policy = sim::SubsetPolicy::kRandomHalf},
              derive_seed(seed, core::kSeedDomainAdversary, 0)));
      ASSERT_TRUE(engine.step());  // round 0: labels, f crash mid-send
      ASSERT_TRUE(engine.step());  // round 1: phase-1 candidate paths
      std::vector<std::uint32_t> claims(n, 0);
      std::uint32_t survivor_rank = 0;
      std::uint32_t worst_shift = 0;
      for (sim::ProcessId id = 0; id < n; ++id) {
        if (engine.is_crashed(id)) {
          continue;
        }
        const tree::NodeId target =
            dynamic_cast<const core::BallsIntoLeavesProcess&>(
                engine.process(id))
                .candidate_target();
        ASSERT_TRUE(target != tree::kNoNode && shape->is_leaf(target))
            << "f=" << f << " seed=" << seed << " ball " << id;
        const std::uint32_t leaf = shape->leaf_rank(target);
        worst_shift = std::max(worst_shift, leaf > survivor_rank
                                                ? leaf - survivor_rank
                                                : survivor_rank - leaf);
        ++claims[leaf];
        ++survivor_rank;
      }
      ASSERT_EQ(survivor_rank, n - f);
      EXPECT_LE(worst_shift, f) << "f=" << f << " seed=" << seed;
      EXPECT_LE(*std::max_element(claims.begin(), claims.end()), f + 1)
          << "f=" << f << " seed=" << seed;
    }
  }
}

TEST(Section53, CrashesDoNotSlowBiLDownMuch) {
  // Compare adversarial vs fault-free mean rounds at n=64 over seeds. The
  // paper argues crashes cannot hurt; allow a one-phase slack for the
  // stale-entry purge phases.
  const double fault_free = mean_rounds(Algorithm::kBallsIntoLeaves, 64, 5);
  for (AdversaryKind kind :
       {AdversaryKind::kOblivious, AdversaryKind::kBurst,
        AdversaryKind::kTargetedWinner}) {
    const AdversarySpec spec{.kind = kind,
                             .crashes = 32,
                             .when = 1,
                             .horizon = 6,
                             .per_round = 2,
                             .subset = sim::SubsetPolicy::kRandomHalf};
    const double attacked =
        mean_rounds(Algorithm::kBallsIntoLeaves, 64, 5, spec);
    EXPECT_LE(attacked, fault_free + 6.0) << to_string(kind);
  }
}

TEST(MessageCost, PayloadsStayLogarithmic) {
  // Candidate paths are endpoint-encoded: even at n=512 no payload should
  // exceed a couple dozen bytes.
  RunConfig config;
  config.n = 512;
  config.seed = 2;
  const auto summary = harness::run_renaming(config);
  EXPECT_LE(summary.raw.metrics.max_payload_bytes, 32u);
}

TEST(MessageCost, TotalTrafficIsQuadraticPerRound) {
  RunConfig config;
  config.n = 64;
  config.seed = 2;
  const auto summary = harness::run_renaming(config);
  // Full-information broadcast: ~n deliveries per process per round.
  const double per_round =
      static_cast<double>(summary.messages_delivered) / summary.total_rounds;
  EXPECT_NEAR(per_round, 64.0 * 64.0, 64.0 * 64.0 * 0.35);
}

TEST(Determinism, FullRunsReproduceUnderEveryAdversary) {
  // The repository's reproducibility contract: a run is a pure function of
  // (algorithm, n, adversary, seed) — including who crashes, when, and
  // which subsets see the final broadcasts.
  for (AdversaryKind kind :
       {AdversaryKind::kOblivious, AdversaryKind::kBurst,
        AdversaryKind::kSandwich, AdversaryKind::kEager,
        AdversaryKind::kTargetedWinner, AdversaryKind::kTargetedAnnouncer}) {
    RunConfig config;
    config.n = 48;
    config.seed = 77;
    config.adversary = AdversarySpec{.kind = kind,
                                     .crashes = 20,
                                     .when = 1,
                                     .horizon = 8,
                                     .per_round = 2};
    const auto a = harness::run_renaming(config);
    const auto b = harness::run_renaming(config);
    EXPECT_EQ(a.rounds, b.rounds) << to_string(kind);
    EXPECT_EQ(a.crashes, b.crashes) << to_string(kind);
    EXPECT_EQ(a.bytes_delivered, b.bytes_delivered) << to_string(kind);
    for (std::size_t i = 0; i < a.raw.outcomes.size(); ++i) {
      EXPECT_EQ(a.raw.outcomes[i].name, b.raw.outcomes[i].name)
          << to_string(kind) << " process " << i;
      EXPECT_EQ(a.raw.outcomes[i].crashed, b.raw.outcomes[i].crashed)
          << to_string(kind) << " process " << i;
    }
  }
}

TEST(TightRenaming, EveryNameIsUsedFaultFree) {
  // m = n: the assignment must be a bijection, not merely injective.
  RunConfig config;
  config.n = 128;
  config.seed = 6;
  const auto summary = harness::run_renaming(config);
  std::vector<bool> used(129, false);
  for (const auto& outcome : summary.raw.outcomes) {
    used[outcome.name] = true;
  }
  for (std::uint32_t name = 1; name <= 128; ++name) {
    EXPECT_TRUE(used[name]) << "name " << name << " unused";
  }
}

}  // namespace
}  // namespace bil
