// Seeded, deterministic schedule-space optimizers.
//
// Two classic derivative-free maximizers over the genome space, sharing one
// mutation kernel:
//
//   * hill_climb — random-restart hill climbing: split the evaluation
//     budget over `restarts` independent starts; each start draws a random
//     genome and greedily accepts strictly improving single mutations.
//     Restarts are what make it robust: the schedule landscape is full of
//     plateaus (most single-crash tweaks don't change the round count).
//   * anneal — simulated annealing: one trajectory with a geometric
//     temperature schedule; worse candidates are accepted with probability
//     exp(Δ/T), which crosses the plateaus hill climbing gets stuck on.
//
// Determinism is a contract, not an accident: every random choice draws
// from an Rng seeded with derive_seed(search_seed, kSeedDomainSearch, k)
// (k = restart index; the run seed of each evaluation is the genome's own),
// so the same SearchConfig always walks the same candidate sequence and
// returns the same best genome — asserted by contract_test's
// determinism-of-search suite, and what makes the CI fuzz-search job
// reproducible from its logged config.
#pragma once

#include <cstdint>

#include "search/evaluate.h"
#include "search/genome.h"

namespace bil::search {

enum class OptimizerKind : std::uint8_t { kHillClimb, kAnneal };

[[nodiscard]] const char* to_string(OptimizerKind kind) noexcept;
[[nodiscard]] OptimizerKind parse_optimizer(std::string_view name);

struct SearchConfig {
  harness::Algorithm algorithm = harness::Algorithm::kBallsIntoLeaves;
  std::uint32_t n = 0;
  /// Run seed all candidates are evaluated at (protocol coins fixed: the
  /// search compares schedules, not luck).
  std::uint64_t run_seed = 1;
  /// Crash budget t; genomes never exceed it.
  std::uint32_t budget = 0;
  harness::AdversaryKind mode = harness::AdversaryKind::kNone;
  Objective objective = Objective::kRounds;
  /// Total candidate evaluations (both optimizers consume exactly this).
  std::uint32_t evaluations = 200;
  /// Hill-climbing restarts (ignored by anneal).
  std::uint32_t restarts = 4;
  /// Seeds the optimizer's own mutation stream (kSeedDomainSearch —
  /// disjoint from every run-level domain).
  std::uint64_t search_seed = 1;
  /// Crash genes may fire in rounds [0, horizon); 0 = an algorithm-aware
  /// default (a bit past the expected run length — crashing a finished
  /// protocol is wasted budget).
  sim::RoundNumber horizon = 0;
  /// Optional Byzantine window budget explored alongside the crash
  /// schedule (engine-only; leave 0 for fast-path searches).
  std::uint32_t byzantine = 0;
  EvalOptions eval;
};

struct SearchResult {
  /// Best genome found plus its recorded outcome (the regression-fixture /
  /// replay format).
  GenomeRecord best;
  double best_score = 0.0;
  /// Evaluations actually spent (== config.evaluations).
  std::uint32_t evaluations = 0;
};

[[nodiscard]] SearchResult hill_climb(const SearchConfig& config);
[[nodiscard]] SearchResult anneal(const SearchConfig& config);

/// Dispatch by kind.
[[nodiscard]] SearchResult run_search(OptimizerKind kind,
                                      const SearchConfig& config);

/// The gene-round horizon a SearchConfig{horizon = 0} resolves to.
[[nodiscard]] sim::RoundNumber default_horizon(harness::Algorithm algorithm,
                                               std::uint32_t n,
                                               std::uint32_t budget);

}  // namespace bil::search
