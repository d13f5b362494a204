#include "api/registry.h"

#include <algorithm>
#include <sstream>

#include "util/contract.h"

namespace bil::api {

namespace {

using harness::Algorithm;

std::vector<AlgorithmInfo> build_algorithm_registry() {
  std::vector<AlgorithmInfo> entries = {
      {.algorithm = Algorithm::kBallsIntoLeaves,
       .name = harness::to_string(Algorithm::kBallsIntoLeaves),
       .aliases = {"bil"},
       .description =
           "Balls-into-Leaves, Algorithm 1 (randomized, O(log log n) w.h.p.)"},
      {.algorithm = Algorithm::kEarlyTerminating,
       .name = harness::to_string(Algorithm::kEarlyTerminating),
       .aliases = {"early"},
       .description = "§6 early-terminating extension (deterministic phase 1, "
                      "then random)"},
      {.algorithm = Algorithm::kRankDescent,
       .name = harness::to_string(Algorithm::kRankDescent),
       .aliases = {"rank"},
       .description = "deterministic rank-indexed descent every phase (§6's "
                      "deterministic scheme)"},
      {.algorithm = Algorithm::kHalving,
       .name = harness::to_string(Algorithm::kHalving),
       .aliases = {},
       .description = "deterministic one-level-per-phase halving (Θ(log n); "
                      "the Chaudhuri–Herlihy–Tuttle class)"},
      {.algorithm = Algorithm::kGossip,
       .name = harness::to_string(Algorithm::kGossip),
       .aliases = {},
       .description = "flooding agreement on the id set; t+1 rounds (linear "
                      "baseline)",
       .family = "gossip"},
      {.algorithm = Algorithm::kNaiveBins,
       .name = harness::to_string(Algorithm::kNaiveBins),
       .aliases = {"bins"},
       .description = "tree-free random claims with retry (naive "
                      "balls-into-bins baseline)",
       .family = "bins"},
      {.algorithm = Algorithm::kSplitterNet,
       .name = harness::to_string(Algorithm::kSplitterNet),
       .aliases = {"splitter"},
       .description = "Moir–Anderson splitter-network grid adapted to "
                      "message passing (Θ(n) rounds, Θ((n+t)²) namespace)",
       .family = "splitter"},
  };
  for (AlgorithmInfo& entry : entries) {
    entry.fast_sim_capable = harness::is_tree_based(entry.algorithm);
    if (entry.fast_sim_capable) {
      entry.policy = harness::path_policy(entry.algorithm);
    }
  }
  return entries;
}

/// The entry whose canonical name or alias is `name`; null when none is.
template <typename Registry>
const typename Registry::value_type* find_by_name(const Registry& registry,
                                                  std::string_view name) {
  for (const auto& info : registry) {
    if (info.name == name || std::find(info.aliases.begin(), info.aliases.end(),
                                       name) != info.aliases.end()) {
      return &info;
    }
  }
  return nullptr;
}

template <typename Registry>
std::string catalog(const Registry& registry) {
  std::ostringstream out;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    out << (i == 0 ? "" : "|") << registry[i].name;
    for (const auto& alias : registry[i].aliases) {
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

std::span<const AdversaryInfo> adversary_registry() noexcept {
  return harness::adversary_table();
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
  return harness::adversary_descriptor(kind);
}

const AlgorithmInfo& parse_algorithm(std::string_view name) {
  const AlgorithmInfo* info = find_by_name(algorithm_registry(), name);
  BIL_REQUIRE(info != nullptr, "unknown algorithm '" + std::string(name) +
                                   "' (expected " + algorithm_catalog() + ")");
  return *info;
}

const AdversaryInfo& parse_adversary(std::string_view name) {
  const AdversaryInfo* info = find_by_name(adversary_registry(), name);
  BIL_REQUIRE(info != nullptr, "unknown adversary '" + std::string(name) +
                                   "' (expected " + adversary_catalog() + ")");
  return *info;
}

std::string algorithm_catalog() { return catalog(algorithm_registry()); }

std::string adversary_catalog() { return catalog(adversary_registry()); }

}  // namespace bil::api
