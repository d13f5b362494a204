// E10 — ablations of the paper's two load-bearing design choices, plus the
// payoff of eager decision.
//
// (a) Capacity-weighted coins (Algorithm 1 line 6) vs uniform coins.
//     The weighting makes each ball's target land uniformly over *free*
//     slots; with unweighted coins, dense regions keep attracting balls
//     that the movement rule must clip, adding phases. Correctness is
//     unaffected (clipping catches everything); speed is the casualty.
//
// (b) The <R priority order (Definition 1: deeper balls first) vs naive
//     label order for applying received paths. The depth-first order
//     guarantees that a stale entry left by a crashed ball is purged at its
//     turn *before* any ball it could possibly deflect is moved — that is
//     what keeps all correct views simulating identical movements. With
//     label order, a stale shallow entry processed late deflects different
//     balls in different views, and two correct balls can decide the same
//     name. We count observed violations over many adversarial seeds:
//     the paper's order must show zero; the ablation shows real failures.
//
// (c) Eager vs global decision latency: with TerminationMode::kEagerLeaf a
//     ball's name is final as soon as it announces its leaf; we report the
//     mean decide round across processes against the global variant.
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/balls_into_leaves.h"
#include "core/fast_sim_crash.h"
#include "core/seeds.h"
#include "sim/adversaries.h"
#include "sim/engine.h"
#include "util/contract.h"

namespace {

using namespace bil;

void coin_weighting_ablation() {
  constexpr std::uint32_t kSeeds = 15;
  stats::Table table({"n", "weighted coins (paper)", "uniform coins",
                      "extra phases"});
  for (std::uint32_t exp = 6; exp <= 16; exp += 2) {
    const std::uint32_t n = 1u << exp;
    double weighted = 0;
    double uniform = 0;
    // Phases to completion: one init round, then two rounds per phase.
    const auto phases = [n](core::PathPolicy policy, std::uint64_t seed) {
      return (core::run_fast_sim_crash(
                  {.n = n, .seed = seed, .policy = policy}, nullptr)
                  .total_rounds -
              1) /
             2;
    };
    for (std::uint32_t seed = 1; seed <= kSeeds; ++seed) {
      weighted += phases(core::PathPolicy::kRandomWeighted, seed);
      uniform += phases(core::PathPolicy::kRandomUniform, seed);
    }
    table.add_row({stats::fmt_int(n), stats::fmt_fixed(weighted / kSeeds, 2),
                   stats::fmt_fixed(uniform / kSeeds, 2),
                   stats::fmt_fixed((uniform - weighted) / kSeeds, 2)});
  }
  std::cout << "\n(a) phases to completion, capacity-weighted vs uniform "
               "coins (failure-free)\n\n";
  table.print(std::cout);
}

struct SoundnessCount {
  std::uint32_t runs = 0;
  std::uint32_t uniqueness_violations = 0;
  std::uint32_t other_failures = 0;
};

SoundnessCount run_order_trials(core::MovementOrder order,
                                std::uint32_t seeds) {
  SoundnessCount count;
  const std::uint32_t n = 64;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
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
    // Crash announcers mid-position-broadcast with alternating delivery:
    // the richest source of stale divergent entries (the violating
    // executions need a crashed ball's announced position to reach one
    // colliding ball but not the other).
    auto adversary = std::make_unique<sim::EagerCrashAdversary>(
        sim::EagerCrashAdversary::Options{
            .start_round = 2,
            .per_round = 3,
            .subset_policy = sim::SubsetPolicy::kAlternating},
        derive_seed(seed, core::kSeedDomainAdversary, 0));
    sim::Engine engine(
        sim::EngineConfig{.num_processes = n, .max_crashes = n / 2},
        std::move(processes), std::move(adversary));
    ++count.runs;
    try {
      const sim::RunResult result = engine.run();
      sim::validate_renaming(result, n);
    } catch (const ContractViolation& violation) {
      const std::string what = violation.what();
      if (what.find("uniqueness") != std::string::npos) {
        ++count.uniqueness_violations;
      } else {
        ++count.other_failures;
      }
    }
  }
  return count;
}

void movement_order_ablation() {
  constexpr std::uint32_t kSeeds = 600;
  stats::Table table({"movement order", "runs", "uniqueness violations",
                      "other failures"});
  const SoundnessCount paper =
      run_order_trials(core::MovementOrder::kDepthThenLabel, kSeeds);
  table.add_row({"depth-then-label (paper, Def. 1)", stats::fmt_int(paper.runs),
                 stats::fmt_int(paper.uniqueness_violations),
                 stats::fmt_int(paper.other_failures)});
  const SoundnessCount naive =
      run_order_trials(core::MovementOrder::kLabelOnly, kSeeds);
  table.add_row({"label-only (ablation)", stats::fmt_int(naive.runs),
                 stats::fmt_int(naive.uniqueness_violations),
                 stats::fmt_int(naive.other_failures)});
  std::cout << "\n(b) safety under announcer crashes (n=64, 3 crashes/round "
               "mid-broadcast,\nalternating delivery), by movement order\n\n";
  table.print(std::cout);
  std::cout << "\nDefinition 1's depth-first order is what synchronizes the "
               "views; label order\nlets stale crashed entries deflect "
               "different balls in different views — rarely,\nbut two "
               "correct balls then decide the same name. Safety bugs of this "
               "kind do\nnot show up in failure-free testing at any scale.\n";
}

void eager_latency() {
  constexpr std::uint32_t kSeeds = 10;
  const std::uint32_t n = 512;
  stats::Table table({"termination mode", "mean decide round",
                      "last decide round", "halt round"});
  for (core::TerminationMode mode :
       {core::TerminationMode::kGlobal, core::TerminationMode::kEagerLeaf}) {
    double mean_decide = 0;
    double last_decide = 0;
    double halt_round = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      harness::RunConfig config;
      config.n = n;
      config.seed = seed;
      config.termination = mode;
      const auto summary = harness::run_renaming(config);
      double total = 0;
      std::uint32_t correct = 0;
      for (const auto& outcome : summary.raw.outcomes) {
        if (!outcome.crashed) {
          total += outcome.decide_round;
          ++correct;
        }
      }
      mean_decide += total / correct;
      last_decide += summary.rounds - 1;
      halt_round += summary.total_rounds;
    }
    table.add_row({to_string(mode), stats::fmt_fixed(mean_decide / kSeeds, 2),
                   stats::fmt_fixed(last_decide / kSeeds, 2),
                   stats::fmt_fixed(halt_round / kSeeds, 2)});
  }
  std::cout << "\n(c) decision latency, n=" << n << " failure-free ("
            << kSeeds << " seeds)\n\n";
  table.print(std::cout);
  std::cout << "\nEager mode publishes most names phases before the last "
               "straggler settles;\nthe protocol's wind-down round is "
               "unchanged.\n";
}

}  // namespace

int main() {
  bench::print_banner(
      "E10  bench_ablation   [design-choice ablations]",
      "What the capacity weighting, the <R priority order, and eager "
      "decision each buy.");
  coin_weighting_ablation();
  movement_order_ablation();
  eager_latency();
  return 0;
}
