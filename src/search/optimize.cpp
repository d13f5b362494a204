#include "search/optimize.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/seeds.h"
#include "util/contract.h"
#include "util/math.h"
#include "util/rng.h"

namespace bil::search {

const char* to_string(OptimizerKind kind) noexcept {
  switch (kind) {
    case OptimizerKind::kHillClimb:
      return "hill-climb";
    case OptimizerKind::kAnneal:
      return "anneal";
  }
  return "unknown";
}

OptimizerKind parse_optimizer(std::string_view name) {
  for (const OptimizerKind kind :
       {OptimizerKind::kHillClimb, OptimizerKind::kAnneal}) {
    if (name == to_string(kind)) {
      return kind;
    }
  }
  BIL_REQUIRE(false, "unknown optimizer '" + std::string(name) +
                         "' (expected hill-climb|anneal)");
  return OptimizerKind::kHillClimb;
}

sim::RoundNumber default_horizon(harness::Algorithm algorithm, std::uint32_t n,
                                 std::uint32_t budget) {
  const auto log_n = static_cast<sim::RoundNumber>(floor_log2(n));
  switch (algorithm) {
    case harness::Algorithm::kGossip:
      // t+2 rounds at crash budget t; the harness default is wait-free.
      return n + 2;
    case harness::Algorithm::kNaiveBins:
      // Retry rounds are geometric; 4·log n leaves slack for collisions.
      return 4 * log_n + 16;
    case harness::Algorithm::kSplitterNet:
      // One anti-diagonal per round; crashes extend the grid walk.
      return n + budget + 2;
    default:
      // Tree algorithms: ~2·loglog n expected, but crashes append purge
      // phases — a 2·log n window covers every schedule worth finding.
      return 2 * log_n + 8;
  }
}

namespace {

constexpr sim::SubsetPolicy kSubsets[] = {
    sim::SubsetPolicy::kSilent, sim::SubsetPolicy::kAlternating,
    sim::SubsetPolicy::kRandomHalf, sim::SubsetPolicy::kAll};

/// Targeted-mode per_round cap. k simultaneous kRandomHalf victims cost the
/// symbolic fast path up to 2^k delivery classes per crash round
/// (core/fast_sim_crash.h), so unbounded per_round turns an evaluation from
/// milliseconds into minutes. Four victims a round is already far past
/// anything the hand-coded strategies commit.
constexpr std::uint32_t kMaxPerRound = 4;

std::uint32_t per_round_cap(const SearchConfig& config) {
  return std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(config.budget, kMaxPerRound));
}

CrashGene random_gene(Rng& rng, std::uint32_t n, sim::RoundNumber horizon) {
  CrashGene gene;
  gene.round = static_cast<sim::RoundNumber>(rng.below(horizon));
  gene.victim_rank = static_cast<std::uint32_t>(rng.below(n));
  gene.subset = kSubsets[rng.below(4)];
  return gene;
}

ScheduleGenome random_genome(const SearchConfig& config,
                             sim::RoundNumber horizon, Rng& rng) {
  ScheduleGenome genome;
  genome.algorithm = config.algorithm;
  genome.n = config.n;
  genome.run_seed = config.run_seed;
  genome.budget = config.budget;
  genome.mode = config.mode;
  if (config.mode == harness::AdversaryKind::kNone) {
    const std::uint32_t genes =
        config.budget == 0
            ? 0
            : static_cast<std::uint32_t>(rng.between(1, config.budget));
    genome.crashes.reserve(genes);
    for (std::uint32_t i = 0; i < genes; ++i) {
      genome.crashes.push_back(random_gene(rng, config.n, horizon));
    }
  } else {
    genome.per_round =
        static_cast<std::uint32_t>(rng.between(1, per_round_cap(config)));
    genome.subset = kSubsets[rng.below(4)];
  }
  if (config.byzantine > 0) {
    genome.byzantine = config.byzantine;
    genome.byzantine_start =
        static_cast<sim::RoundNumber>(rng.between(1, horizon));
    genome.byzantine_rounds = static_cast<sim::RoundNumber>(rng.between(1, 4));
  }
  return genome;
}

/// The shared mutation kernel: one structural edit per call, every output a
/// well-formed genome (rank addressing makes victims always valid).
ScheduleGenome mutate(const ScheduleGenome& parent, const SearchConfig& config,
                      sim::RoundNumber horizon, Rng& rng) {
  ScheduleGenome child = parent;
  if (config.byzantine > 0 && rng.below(4) == 0) {
    // Slide or resize the corruption window.
    if (rng.below(2) == 0) {
      child.byzantine_start =
          static_cast<sim::RoundNumber>(rng.between(1, horizon));
    } else {
      child.byzantine_rounds =
          static_cast<sim::RoundNumber>(rng.between(1, 4));
    }
    return child;
  }
  if (config.mode != harness::AdversaryKind::kNone) {
    if (rng.below(2) == 0) {
      child.per_round =
          static_cast<std::uint32_t>(rng.between(1, per_round_cap(config)));
    } else {
      child.subset = kSubsets[rng.below(4)];
    }
    return child;
  }
  if (config.budget == 0) {
    return child;  // Nothing to schedule; the genome is a fixed point.
  }
  const bool can_add = child.crashes.size() < config.budget;
  const bool can_edit = !child.crashes.empty();
  // Ops: 0 add, 1 remove, 2 nudge round, 3 redraw round, 4 redraw victim,
  // 5 flip subset. Draw until the op is applicable (at least one always is).
  for (;;) {
    const std::uint64_t op = rng.below(6);
    if (op == 0) {
      if (!can_add) continue;
      child.crashes.push_back(random_gene(rng, config.n, horizon));
      return child;
    }
    if (!can_edit) continue;
    const std::size_t index =
        static_cast<std::size_t>(rng.below(child.crashes.size()));
    CrashGene& gene = child.crashes[index];
    switch (op) {
      case 1:
        child.crashes.erase(child.crashes.begin() +
                            static_cast<std::ptrdiff_t>(index));
        return child;
      case 2: {
        // Nudge ±1..2 rounds, clamped to the horizon.
        const std::uint64_t delta = rng.between(1, 2);
        if (rng.below(2) == 0) {
          gene.round = gene.round >= delta
                           ? static_cast<sim::RoundNumber>(gene.round - delta)
                           : 0;
        } else {
          gene.round = static_cast<sim::RoundNumber>(
              std::min<std::uint64_t>(gene.round + delta, horizon - 1));
        }
        return child;
      }
      case 3:
        gene.round = static_cast<sim::RoundNumber>(rng.below(horizon));
        return child;
      case 4:
        gene.victim_rank = static_cast<std::uint32_t>(rng.below(config.n));
        return child;
      default:
        gene.subset = kSubsets[rng.below(4)];
        return child;
    }
  }
}

/// Uniform double in [0, 1) from the top 53 bits of one raw draw.
double unit_uniform(Rng& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

GenomeRecord record_of(const ScheduleGenome& genome,
                       const EvalOutcome& outcome) {
  GenomeRecord record;
  record.genome = genome;
  record.rounds = outcome.rounds;
  record.crashes = outcome.crashes;
  record.deliveries = outcome.deliveries;
  return record;
}

void check_config(const SearchConfig& config) {
  BIL_REQUIRE(config.n >= 1, "search needs at least one process");
  BIL_REQUIRE(config.budget < config.n,
              "crash budget must leave at least one survivor");
  BIL_REQUIRE(config.evaluations >= 1, "search needs an evaluation budget");
}

}  // namespace

SearchResult hill_climb(const SearchConfig& config) {
  check_config(config);
  const sim::RoundNumber horizon =
      config.horizon != 0
          ? config.horizon
          : default_horizon(config.algorithm, config.n, config.budget);
  const std::uint32_t restarts = std::max<std::uint32_t>(config.restarts, 1);

  SearchResult result;
  bool have_best = false;
  for (std::uint32_t k = 0; k < restarts; ++k) {
    // Split the budget evenly; early restarts absorb the remainder.
    std::uint32_t quota = config.evaluations / restarts +
                          (k < config.evaluations % restarts ? 1 : 0);
    if (quota == 0) {
      break;
    }
    Rng rng(derive_seed(config.search_seed, core::kSeedDomainSearch, k));
    ScheduleGenome current = random_genome(config, horizon, rng);
    EvalOutcome outcome = evaluate(current, config.eval);
    double current_score = score(outcome, config.objective);
    ++result.evaluations;
    --quota;
    if (!have_best || current_score > result.best_score) {
      have_best = true;
      result.best_score = current_score;
      result.best = record_of(current, outcome);
    }
    while (quota > 0) {
      ScheduleGenome candidate = mutate(current, config, horizon, rng);
      const EvalOutcome candidate_outcome = evaluate(candidate, config.eval);
      const double candidate_score = score(candidate_outcome, config.objective);
      ++result.evaluations;
      --quota;
      // Strictly improving only: plateaus are handled by restarting, not
      // by drifting (drift would make the walk length seed-sensitive).
      if (candidate_score > current_score) {
        current = std::move(candidate);
        current_score = candidate_score;
        if (current_score > result.best_score) {
          result.best_score = current_score;
          result.best = record_of(current, candidate_outcome);
        }
      }
    }
  }
  return result;
}

SearchResult anneal(const SearchConfig& config) {
  check_config(config);
  const sim::RoundNumber horizon =
      config.horizon != 0
          ? config.horizon
          : default_horizon(config.algorithm, config.n, config.budget);

  Rng rng(derive_seed(config.search_seed, core::kSeedDomainSearch, 0));
  ScheduleGenome current = random_genome(config, horizon, rng);
  EvalOutcome outcome = evaluate(current, config.eval);
  double current_score = score(outcome, config.objective);

  SearchResult result;
  result.evaluations = 1;
  result.best_score = current_score;
  result.best = record_of(current, outcome);

  // Geometric cooling from T0 to ~Tend over the whole budget. T0 = 2 accepts
  // a 2-round regression ~37% of the time early on; by the end a 1-round
  // regression survives with probability < 2e-9 — effectively greedy.
  constexpr double kT0 = 2.0;
  constexpr double kTend = 0.05;
  const std::uint32_t steps = config.evaluations - 1;
  const double cooling =
      steps > 0 ? std::pow(kTend / kT0, 1.0 / static_cast<double>(steps))
                : 1.0;
  double temperature = kT0;
  for (std::uint32_t i = 0; i < steps; ++i) {
    ScheduleGenome candidate = mutate(current, config, horizon, rng);
    const EvalOutcome candidate_outcome = evaluate(candidate, config.eval);
    const double candidate_score = score(candidate_outcome, config.objective);
    ++result.evaluations;
    const double delta = candidate_score - current_score;
    if (delta > 0.0 || unit_uniform(rng) < std::exp(delta / temperature)) {
      current = std::move(candidate);
      current_score = candidate_score;
      if (current_score > result.best_score) {
        result.best_score = current_score;
        result.best = record_of(current, candidate_outcome);
      }
    }
    temperature *= cooling;
  }
  return result;
}

SearchResult run_search(OptimizerKind kind, const SearchConfig& config) {
  switch (kind) {
    case OptimizerKind::kHillClimb:
      return hill_climb(config);
    case OptimizerKind::kAnneal:
      return anneal(config);
  }
  BIL_REQUIRE(false, "unknown optimizer kind");
  return {};
}

}  // namespace bil::search
