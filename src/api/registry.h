// String-keyed registries for algorithms and adversaries.
//
// One table per concept is the single source of truth for the mapping
// between experiment vocabulary (CLI flags, JSON output, sweep specs) and
// the enums/factories that execute it. The ad-hoc parse_algorithm /
// parse_adversary switches that tools used to carry are deleted in favour
// of these; `--list-algorithms` / `--list-adversaries` and every "unknown
// name" diagnostic are generated from the same tables, so they can never
// drift apart. The adversary table itself lives in the harness
// (harness/adversary_table.h), where the runner and the search read it too;
// this layer adds name parsing and the catalogs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/policy.h"
#include "harness/runner.h"

namespace bil::api {

/// The generic knobs an adversary spec is built from.
using AdversaryKnobs = harness::AdversaryKnobs;

struct AlgorithmInfo {
  harness::Algorithm algorithm;
  /// Canonical name — identical to harness::to_string(algorithm).
  std::string name;
  /// Short CLI aliases ("bil", "early", ...). Also parseable.
  std::vector<std::string> aliases;
  std::string description;
  /// Construction family, for grouping in --list-algorithms: "tree" (the
  /// balls-into-leaves descent variants), "gossip" (flooding agreement),
  /// "bins" (blind random claims), or "splitter" (the Moir–Anderson grid).
  std::string family = "tree";
  /// harness::is_tree_based(algorithm): the tree-descent algorithms the
  /// fast single-view simulator can execute.
  bool fast_sim_capable = false;
  /// harness::path_policy(algorithm) for a tree-based algorithm; meaningful
  /// only when fast_sim_capable.
  core::PathPolicy policy = core::PathPolicy::kRandomWeighted;
};

/// An adversary's registry entry is its row of the harness adversary table:
/// name, aliases, description, fault model, fast-sim route, the knobs it
/// reads, and make(knobs) to build its spec.
using AdversaryInfo = harness::AdversaryDescriptor;

/// All registered algorithms, in enum order.
[[nodiscard]] const std::vector<AlgorithmInfo>& algorithm_registry();
/// All registered adversaries, in enum order (harness::adversary_table()).
[[nodiscard]] std::span<const AdversaryInfo> adversary_registry() noexcept;

/// Registry entry for an enum value (total: every enum value is registered).
[[nodiscard]] const AlgorithmInfo& algorithm_info(harness::Algorithm algorithm);
[[nodiscard]] const AdversaryInfo& adversary_info(harness::AdversaryKind kind);

/// Looks up a canonical name or alias; throws ContractViolation naming the
/// offending string and listing every accepted name on failure.
[[nodiscard]] const AlgorithmInfo& parse_algorithm(std::string_view name);
[[nodiscard]] const AdversaryInfo& parse_adversary(std::string_view name);

/// "bil|early|rank|halving|gossip|bins"-style catalog of accepted names
/// (canonical names; aliases in parentheses), for --help text.
[[nodiscard]] std::string algorithm_catalog();
[[nodiscard]] std::string adversary_catalog();

}  // namespace bil::api
