#include "harness/golden.h"

#include <string>

namespace bil::harness {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv1a_u64(std::uint64_t& hash, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xffu;
    hash *= kFnvPrime;
  }
}

/// Adversaries applicable to every algorithm (no tree introspection).
constexpr AdversaryKind kGenericAdversaries[] = {
    AdversaryKind::kNone,
    AdversaryKind::kOblivious,
    AdversaryKind::kBurst,
};

/// Tree-only adversaries (need the shared TreeShape).
constexpr AdversaryKind kTreeAdversaries[] = {
    AdversaryKind::kSandwich,
    AdversaryKind::kEager,
    AdversaryKind::kTargetedWinner,
    AdversaryKind::kTargetedAnnouncer,
};

constexpr std::uint32_t kSizes[] = {16, 48};
constexpr std::uint64_t kSeeds[] = {0x5EED, 9001};

AdversarySpec spec_for(AdversaryKind kind, std::uint32_t n) {
  AdversarySpec spec;
  spec.kind = kind;
  if (kind == AdversaryKind::kNone) {
    return spec;
  }
  // Budget n/4: enough crashes to exercise subset delivery and stale-entry
  // purging, well under the t < n limit.
  spec.crashes = n / 4;
  spec.when = 1;
  spec.horizon = 8;
  spec.per_round = 2;
  spec.subset = sim::SubsetPolicy::kRandomHalf;
  return spec;
}

/// Wire-fault and timing cells: n/8 Byzantine senders (the equivocator
/// capped at the claims preset's 6 corrupting rounds so honest views
/// reconverge), and delay bound 4 with GST at tick 8.
AdversarySpec fault_spec_for(AdversaryKind kind, std::uint32_t n) {
  AdversarySpec spec;
  spec.kind = kind;
  switch (kind) {
    case AdversaryKind::kByzantineLiar:
      spec.byzantine = n / 8;
      break;
    case AdversaryKind::kByzantineEquivocator:
      spec.byzantine = n / 8;
      spec.byzantine_rounds = 6;
      break;
    case AdversaryKind::kBoundedDelay:
      spec.delay = {.max_delay = 4};
      break;
    case AdversaryKind::kGst:
      spec.delay = {.max_delay = 4, .gst = 8};
      break;
    default:
      break;
  }
  return spec;
}

}  // namespace

std::vector<GoldenCell> golden_grid() {
  std::vector<GoldenCell> grid;
  const Algorithm tree_algorithms[] = {
      Algorithm::kBallsIntoLeaves, Algorithm::kEarlyTerminating,
      Algorithm::kRankDescent, Algorithm::kHalving};
  const Algorithm baseline_algorithms[] = {Algorithm::kGossip,
                                           Algorithm::kNaiveBins};
  for (Algorithm algorithm : tree_algorithms) {
    for (std::uint32_t n : kSizes) {
      for (std::uint64_t seed : kSeeds) {
        for (AdversaryKind kind : kGenericAdversaries) {
          grid.push_back(GoldenCell{.algorithm = algorithm,
                                    .adversary = spec_for(kind, n),
                                    .n = n,
                                    .seed = seed});
        }
        for (AdversaryKind kind : kTreeAdversaries) {
          grid.push_back(GoldenCell{.algorithm = algorithm,
                                    .adversary = spec_for(kind, n),
                                    .n = n,
                                    .seed = seed});
        }
      }
    }
  }
  for (Algorithm algorithm : baseline_algorithms) {
    for (std::uint32_t n : kSizes) {
      for (std::uint64_t seed : kSeeds) {
        for (AdversaryKind kind : kGenericAdversaries) {
          grid.push_back(GoldenCell{.algorithm = algorithm,
                                    .adversary = spec_for(kind, n),
                                    .n = n,
                                    .seed = seed});
        }
      }
    }
  }
  // Eager-leaf termination interacts with crash-round phantoms (see
  // TerminationMode::kEagerLeaf); pin it separately under both a quiet and a
  // crashing adversary.
  for (std::uint32_t n : kSizes) {
    for (std::uint64_t seed : kSeeds) {
      for (AdversaryKind kind :
           {AdversaryKind::kNone, AdversaryKind::kOblivious}) {
        grid.push_back(GoldenCell{.algorithm = Algorithm::kBallsIntoLeaves,
                                  .termination =
                                      core::TerminationMode::kEagerLeaf,
                                  .adversary = spec_for(kind, n),
                                  .n = n,
                                  .seed = seed});
      }
    }
  }
  // Byzantine validation (tolerate_byzantine) and the event-driven delay
  // path: BiL only, since the baselines reject Byzantine budgets.
  for (std::uint32_t n : kSizes) {
    for (std::uint64_t seed : kSeeds) {
      for (AdversaryKind kind :
           {AdversaryKind::kByzantineLiar, AdversaryKind::kByzantineEquivocator,
            AdversaryKind::kBoundedDelay, AdversaryKind::kGst}) {
        grid.push_back(GoldenCell{.algorithm = Algorithm::kBallsIntoLeaves,
                                  .adversary = fault_spec_for(kind, n),
                                  .n = n,
                                  .seed = seed});
      }
    }
  }
  return grid;
}

GoldenObservation run_golden_cell(const GoldenCell& cell,
                                  std::uint32_t engine_threads) {
  RunConfig config;
  config.algorithm = cell.algorithm;
  config.n = cell.n;
  config.seed = cell.seed;
  config.adversary = cell.adversary;
  config.termination = cell.termination;
  config.engine_threads = engine_threads;
  const RunSummary summary = run_renaming(config);

  GoldenObservation observation;
  observation.rounds = summary.rounds;
  observation.total_rounds = summary.total_rounds;
  observation.crashes = summary.crashes;
  observation.messages_delivered = summary.messages_delivered;
  observation.bytes_delivered = summary.bytes_delivered;
  observation.max_payload_bytes = summary.raw.metrics.max_payload_bytes;
  std::uint64_t hash = kFnvOffset;
  for (const sim::ProcessOutcome& outcome : summary.raw.outcomes) {
    fnv1a_u64(hash, outcome.crashed ? 0 : outcome.name);
    fnv1a_u64(hash, outcome.crashed ? 1 : 0);
  }
  observation.names_hash = hash;
  return observation;
}

std::string describe(const GoldenCell& cell) {
  std::string text = to_string(cell.algorithm);
  text += " / ";
  text += to_string(cell.adversary.kind);
  text += " (t=";
  text += std::to_string(cell.adversary.crashes);
  if (cell.adversary.byzantine > 0) {
    text += " f=";
    text += std::to_string(cell.adversary.byzantine);
  }
  text += ") / ";
  text += core::to_string(cell.termination);
  text += " / n=";
  text += std::to_string(cell.n);
  text += " / seed=";
  text += std::to_string(cell.seed);
  return text;
}

}  // namespace bil::harness
