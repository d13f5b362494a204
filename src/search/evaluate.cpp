#include "search/evaluate.h"

#include <algorithm>
#include <utility>

#include "core/fast_sim_crash.h"
#include "core/fast_sim_targeted.h"
#include "search/genome_adversary.h"
#include "sim/engine.h"
#include "tree/shape.h"
#include "util/contract.h"

namespace bil::search {

const char* to_string(Objective objective) noexcept {
  switch (objective) {
    case Objective::kRounds:
      return "rounds";
    case Objective::kNameGap:
      return "name-gap";
    case Objective::kMessages:
      return "messages";
  }
  return "unknown";
}

Objective parse_objective(std::string_view name) {
  for (const Objective objective :
       {Objective::kRounds, Objective::kNameGap, Objective::kMessages}) {
    if (name == to_string(objective)) {
      return objective;
    }
  }
  BIL_REQUIRE(false, "unknown objective '" + std::string(name) +
                         "' (expected rounds|name-gap|messages)");
  return Objective::kRounds;
}

namespace {

/// How the fast sim replays the genome: schedule replay for its own crash
/// schedule, else its registered kind's route.
harness::FastSimRoute fast_sim_route(const ScheduleGenome& genome) {
  return genome.mode == harness::AdversaryKind::kNone
             ? harness::FastSimRoute::kScheduleReplay
             : harness::adversary_descriptor(genome.mode).route;
}

EvalOutcome evaluate_fast(const ScheduleGenome& genome) {
  const bool oracle =
      fast_sim_route(genome) == harness::FastSimRoute::kTrafficOracle;
  const std::unique_ptr<sim::Adversary> adversary = make_genome_adversary(
      genome, oracle ? tree::TreeShape::make(genome.n) : nullptr);
  core::CrashFastSimOptions options;
  options.n = genome.n;
  options.seed = genome.run_seed;
  options.policy = harness::algorithm_descriptor(genome.algorithm).policy;
  options.max_crashes = genome.budget;
  const core::CrashFastSimResult result =
      oracle ? core::run_fast_sim_targeted(options, adversary.get())
             : core::run_fast_sim_crash(options, adversary.get());
  BIL_ENSURE(result.completed, "fast-path genome run hit its round cap");
  core::validate_fast_names(result.names, genome.n, result.crashes);
  EvalOutcome outcome;
  outcome.completed = result.completed;
  outcome.rounds = result.rounds;
  outcome.total_rounds = result.total_rounds;
  outcome.crashes = result.crashes;
  outcome.deliveries = result.deliveries;
  outcome.names = result.names;
  outcome.fast_path = true;
  return outcome;
}

EvalOutcome evaluate_engine(const ScheduleGenome& genome) {
  harness::RunConfig config;
  config.algorithm = genome.algorithm;
  config.n = genome.n;
  config.seed = genome.run_seed;
  // Only the budgets matter here — the adversary object itself is the
  // genome's, not one built from the spec.
  config.adversary.crashes = genome.budget;
  config.adversary.byzantine = genome.byzantine;
  if (genome.byzantine > 0) {
    BIL_REQUIRE(harness::is_tree_based(genome.algorithm),
                "Byzantine genome windows require a tree-based algorithm "
                "(the validation layer lives in the tree processes)");
  }
  std::shared_ptr<const tree::TreeShape> shape;
  if (harness::is_tree_based(genome.algorithm)) {
    shape = tree::TreeShape::make(genome.n);
  }
  sim::Engine engine(
      sim::EngineConfig{.num_processes = genome.n,
                        .max_crashes = genome.budget,
                        .max_byzantine = genome.byzantine},
      harness::make_processes(config, shape),
      make_genome_adversary(genome, shape));
  sim::RunResult result = engine.run();
  sim::validate_renaming(
      result, harness::algorithm_descriptor(genome.algorithm)
                  .namespace_size(genome.n, genome.budget));
  EvalOutcome outcome;
  outcome.completed = result.completed;
  outcome.rounds = result.last_decide_round() + 1;
  outcome.total_rounds = result.rounds;
  outcome.crashes = engine.crash_count();
  outcome.deliveries = result.metrics.total_deliveries;
  outcome.names.reserve(result.outcomes.size());
  for (const sim::ProcessOutcome& process : result.outcomes) {
    outcome.names.push_back(process.crashed ? 0 : process.name);
  }
  return outcome;
}

}  // namespace

bool fast_sim_capable(const ScheduleGenome& genome) {
  return harness::is_tree_based(genome.algorithm) && genome.byzantine == 0 &&
         fast_sim_route(genome) != harness::FastSimRoute::kEngineOnly;
}

EvalOutcome evaluate(const ScheduleGenome& genome, const EvalOptions& options) {
  BIL_REQUIRE(genome.n >= 1, "genome needs at least one process");
  BIL_REQUIRE(genome.budget < genome.n,
              "crash budget must leave at least one survivor");
  if (fast_sim_capable(genome) && genome.n >= options.fast_sim_min_n) {
    return evaluate_fast(genome);
  }
  return evaluate_engine(genome);
}

double score(const EvalOutcome& outcome, Objective objective) {
  switch (objective) {
    case Objective::kRounds:
      return outcome.rounds;
    case Objective::kNameGap: {
      std::uint64_t max_name = 0;
      std::uint64_t deciders = 0;
      for (const std::uint64_t name : outcome.names) {
        if (name != 0) {
          max_name = std::max(max_name, name);
          ++deciders;
        }
      }
      return max_name >= deciders
                 ? static_cast<double>(max_name - deciders)
                 : 0.0;
    }
    case Objective::kMessages:
      return static_cast<double>(outcome.deliveries);
  }
  return 0.0;
}

}  // namespace bil::search
