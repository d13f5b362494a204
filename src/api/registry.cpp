#include "api/registry.h"

#include <sstream>

#include "util/contract.h"

namespace bil::api {

namespace {

using harness::AdversaryKind;
using harness::AdversarySpec;
using harness::Algorithm;

std::vector<AlgorithmInfo> build_algorithm_registry() {
  std::vector<AlgorithmInfo> entries;
  entries.push_back(
      {.algorithm = Algorithm::kBallsIntoLeaves,
       .name = harness::to_string(Algorithm::kBallsIntoLeaves),
       .aliases = {"bil"},
       .description =
           "Balls-into-Leaves, Algorithm 1 (randomized, O(log log n) w.h.p.)",
       .family = "tree",
       .fast_sim_capable = true,
       .policy = core::PathPolicy::kRandomWeighted});
  entries.push_back(
      {.algorithm = Algorithm::kEarlyTerminating,
       .name = harness::to_string(Algorithm::kEarlyTerminating),
       .aliases = {"early"},
       .description = "§6 early-terminating extension (deterministic phase 1, "
                      "then random)",
       .family = "tree",
       .fast_sim_capable = true,
       .policy = core::PathPolicy::kEarlyTerminating});
  entries.push_back(
      {.algorithm = Algorithm::kRankDescent,
       .name = harness::to_string(Algorithm::kRankDescent),
       .aliases = {"rank"},
       .description = "deterministic rank-indexed descent every phase (§6's "
                      "deterministic scheme)",
       .family = "tree",
       .fast_sim_capable = true,
       .policy = core::PathPolicy::kRankedSlack});
  entries.push_back(
      {.algorithm = Algorithm::kHalving,
       .name = harness::to_string(Algorithm::kHalving),
       .aliases = {},
       .description = "deterministic one-level-per-phase halving (Θ(log n); "
                      "the Chaudhuri–Herlihy–Tuttle class)",
       .family = "tree",
       .fast_sim_capable = true,
       .policy = core::PathPolicy::kHalvingSplit});
  entries.push_back(
      {.algorithm = Algorithm::kGossip,
       .name = harness::to_string(Algorithm::kGossip),
       .aliases = {},
       .description = "flooding agreement on the id set; t+1 rounds (linear "
                      "baseline)",
       .family = "gossip",
       .fast_sim_capable = false});
  entries.push_back(
      {.algorithm = Algorithm::kNaiveBins,
       .name = harness::to_string(Algorithm::kNaiveBins),
       .aliases = {"bins"},
       .description = "tree-free random claims with retry (naive "
                      "balls-into-bins baseline)",
       .family = "bins",
       .fast_sim_capable = false});
  entries.push_back(
      {.algorithm = Algorithm::kSplitterNet,
       .name = harness::to_string(Algorithm::kSplitterNet),
       .aliases = {"splitter"},
       .description = "Moir–Anderson splitter-network grid adapted to "
                      "message passing (Θ(n) rounds, Θ((n+t)²) namespace)",
       .family = "splitter",
       .fast_sim_capable = false});
  return entries;
}

std::vector<AdversaryInfo> build_adversary_registry() {
  std::vector<AdversaryInfo> entries;
  entries.push_back({.kind = AdversaryKind::kNone,
                     .name = harness::to_string(AdversaryKind::kNone),
                     .aliases = {},
                     .description = "failure-free execution",
                     .fast_sim_capable = true,
                     .make = [](const AdversaryKnobs&) {
                       return AdversarySpec{.kind = AdversaryKind::kNone,
                                            .delay = {}};
                     }});
  entries.push_back({.kind = AdversaryKind::kOblivious,
                     .name = harness::to_string(AdversaryKind::kOblivious),
                     .aliases = {},
                     .description = "crashes planned before the run, spread "
                                    "over the first `horizon` rounds",
                     .fast_sim_capable = true,
                     .make = [](const AdversaryKnobs& knobs) {
                       return AdversarySpec{.kind = AdversaryKind::kOblivious,
                                            .crashes = knobs.crashes,
                                            .horizon = knobs.horizon,
                                            .subset = knobs.subset,
                                            .delay = {}};
                     }});
  entries.push_back({.kind = AdversaryKind::kBurst,
                     .name = harness::to_string(AdversaryKind::kBurst),
                     .aliases = {},
                     .description =
                         "all crashes in one round, lowest ids first",
                     .fast_sim_capable = true,
                     .make = [](const AdversaryKnobs& knobs) {
                       return AdversarySpec{.kind = AdversaryKind::kBurst,
                                            .crashes = knobs.crashes,
                                            .when = knobs.when,
                                            .subset = knobs.subset,
                                            .delay = {}};
                     }});
  entries.push_back({.kind = AdversaryKind::kSandwich,
                     .name = harness::to_string(AdversaryKind::kSandwich),
                     .aliases = {},
                     .description = "§6 label-exchange collision pattern: the "
                                    "lowest ball crashes mid-announcement "
                                    "every round",
                     .fast_sim_capable = true,
                     .make = [](const AdversaryKnobs& knobs) {
                       return AdversarySpec{.kind = AdversaryKind::kSandwich,
                                            .crashes = knobs.crashes,
                                            .per_round = knobs.per_round,
                                            .delay = {}};
                     }});
  entries.push_back({.kind = AdversaryKind::kEager,
                     .name = harness::to_string(AdversaryKind::kEager),
                     .aliases = {},
                     .description = "crashes `per_round` random processes "
                                    "every round from `when` on",
                     .fast_sim_capable = true,
                     .make = [](const AdversaryKnobs& knobs) {
                       return AdversarySpec{.kind = AdversaryKind::kEager,
                                            .crashes = knobs.crashes,
                                            .when = knobs.when,
                                            .per_round = knobs.per_round,
                                            .subset = knobs.subset,
                                            .delay = {}};
                     }});
  entries.push_back(
      {.kind = AdversaryKind::kTargetedWinner,
       .name = harness::to_string(AdversaryKind::kTargetedWinner),
       .aliases = {"winner"},
       .description = "protocol-aware: crashes the winning ball of the most "
                      "contended leaf (replayed symbolically by the "
                      "traffic-oracle fast path)",
       .fast_sim_capable = true,
       .make = [](const AdversaryKnobs& knobs) {
         return AdversarySpec{.kind = AdversaryKind::kTargetedWinner,
                              .crashes = knobs.crashes,
                              .per_round = knobs.per_round,
                              .subset = knobs.subset,
                              .delay = {}};
       }});
  entries.push_back(
      {.kind = AdversaryKind::kTargetedAnnouncer,
       .name = harness::to_string(AdversaryKind::kTargetedAnnouncer),
       .aliases = {"announcer"},
       .description = "protocol-aware: crashes the deepest announcing ball "
                      "mid-broadcast (replayed symbolically by the "
                      "traffic-oracle fast path)",
       .fast_sim_capable = true,
       .make = [](const AdversaryKnobs& knobs) {
         return AdversarySpec{.kind = AdversaryKind::kTargetedAnnouncer,
                              .crashes = knobs.crashes,
                              .per_round = knobs.per_round,
                              .subset = knobs.subset,
                              .delay = {}};
       }});
  // Byzantine wire-corruption kinds. fast_sim_capable is false for all
  // three: the fast path simulates one shared view, while these strategies
  // are *defined* by per-recipient wire rewrites (see api/registry.h).
  entries.push_back(
      {.kind = AdversaryKind::kByzantineBitFlip,
       .name = harness::to_string(AdversaryKind::kByzantineBitFlip),
       .aliases = {"bitflip"},
       .description = "f senders' payloads garbled on the wire (bit flips / "
                      "truncation); undecodable traffic must read as silence",
       .fault_model = "byzantine",
       .fast_sim_capable = false,
       .make = [](const AdversaryKnobs& knobs) {
         return AdversarySpec{.kind = AdversaryKind::kByzantineBitFlip,
                              .byzantine = knobs.byzantine,
                              .byzantine_rounds = knobs.byzantine_rounds,
                              .delay = {}};
       }});
  entries.push_back(
      {.kind = AdversaryKind::kByzantineLiar,
       .name = harness::to_string(AdversaryKind::kByzantineLiar),
       .aliases = {"liar"},
       .description = "f senders each broadcast one stable forged leaf claim "
                      "(phantom occupancy, undetectable by construction)",
       .fault_model = "byzantine",
       .fast_sim_capable = false,
       .make = [](const AdversaryKnobs& knobs) {
         return AdversarySpec{.kind = AdversaryKind::kByzantineLiar,
                              .byzantine = knobs.byzantine,
                              .byzantine_rounds = knobs.byzantine_rounds,
                              .delay = {}};
       }});
  entries.push_back(
      {.kind = AdversaryKind::kByzantineEquivocator,
       .name = harness::to_string(AdversaryKind::kByzantineEquivocator),
       .aliases = {"equivocator"},
       .description = "f senders tell each recipient a different forged path "
                      "claim; cap with --byzantine-rounds (unbounded "
                      "equivocation defers termination indefinitely)",
       .fault_model = "byzantine",
       .fast_sim_capable = false,
       .make = [](const AdversaryKnobs& knobs) {
         return AdversarySpec{.kind = AdversaryKind::kByzantineEquivocator,
                              .byzantine = knobs.byzantine,
                              .byzantine_rounds = knobs.byzantine_rounds,
                              .delay = {}};
       }});
  // Delay (timing) kinds: the adversary assumes the DeliveryScheduler role
  // (sim/scheduler.h) and attacks when batches arrive instead of crashing
  // or corrupting. Async-only: they exist only on the engine, so
  // fast_sim_capable is false by construction (the single-view simulator
  // has no virtual clock — see fast_sim_incompatibility).
  entries.push_back(
      {.kind = AdversaryKind::kBoundedDelay,
       .name = harness::to_string(AdversaryKind::kBoundedDelay),
       .aliases = {"delay"},
       .description = "every message batch delayed uniformly in [1, d] "
                      "virtual ticks (--delay d; d = 1 is bit-identical to "
                      "the synchronous run)",
       .fault_model = "delay",
       .timing = "async-only",
       .fast_sim_capable = false,
       .make = [](const AdversaryKnobs& knobs) {
         return AdversarySpec{.kind = AdversaryKind::kBoundedDelay,
                              .delay = {.max_delay = knobs.max_delay,
                                        .gst = 0,
                                        .timeout = knobs.timeout}};
       }});
  entries.push_back(
      {.kind = AdversaryKind::kGst,
       .name = harness::to_string(AdversaryKind::kGst),
       .aliases = {"partial-synchrony"},
       .description = "partial synchrony: delays bounded by d before the "
                      "global stabilization tick (--gst), exactly one tick "
                      "after it — rounds-after-GST obeys the synchronous "
                      "O(log log n) contract",
       .fault_model = "delay",
       .timing = "async-only",
       .fast_sim_capable = false,
       .make = [](const AdversaryKnobs& knobs) {
         return AdversarySpec{.kind = AdversaryKind::kGst,
                              .delay = {.max_delay = knobs.max_delay,
                                        .gst = knobs.gst,
                                        .timeout = knobs.timeout}};
       }});
  return entries;
}

template <typename Info>
bool matches(const Info& info, std::string_view name) {
  if (info.name == name) {
    return true;
  }
  for (const std::string& alias : info.aliases) {
    if (alias == name) {
      return true;
    }
  }
  return false;
}

template <typename Info>
std::string catalog(const std::vector<Info>& registry) {
  std::ostringstream out;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    out << (i == 0 ? "" : "|") << registry[i].name;
    for (const std::string& alias : registry[i].aliases) {
      out << '(' << alias << ')';
    }
  }
  return out.str();
}

}  // namespace

const std::vector<AlgorithmInfo>& algorithm_registry() {
  static const std::vector<AlgorithmInfo> registry = build_algorithm_registry();
  return registry;
}

const std::vector<AdversaryInfo>& adversary_registry() {
  static const std::vector<AdversaryInfo> registry = build_adversary_registry();
  return registry;
}

const AlgorithmInfo& algorithm_info(harness::Algorithm algorithm) {
  for (const AlgorithmInfo& info : algorithm_registry()) {
    if (info.algorithm == algorithm) {
      return info;
    }
  }
  BIL_REQUIRE(false, "algorithm enum value is not registered");
  return algorithm_registry().front();
}

const AdversaryInfo& adversary_info(harness::AdversaryKind kind) {
  for (const AdversaryInfo& info : adversary_registry()) {
    if (info.kind == kind) {
      return info;
    }
  }
  BIL_REQUIRE(false, "adversary enum value is not registered");
  return adversary_registry().front();
}

const AlgorithmInfo& parse_algorithm(std::string_view name) {
  for (const AlgorithmInfo& info : algorithm_registry()) {
    if (matches(info, name)) {
      return info;
    }
  }
  BIL_REQUIRE(false, "unknown algorithm '" + std::string(name) +
                         "' (expected " + algorithm_catalog() + ")");
  return algorithm_registry().front();
}

const AdversaryInfo& parse_adversary(std::string_view name) {
  for (const AdversaryInfo& info : adversary_registry()) {
    if (matches(info, name)) {
      return info;
    }
  }
  BIL_REQUIRE(false, "unknown adversary '" + std::string(name) +
                         "' (expected " + adversary_catalog() + ")");
  return adversary_registry().front();
}

std::string algorithm_catalog() { return catalog(algorithm_registry()); }

std::string adversary_catalog() { return catalog(adversary_registry()); }

}  // namespace bil::api
