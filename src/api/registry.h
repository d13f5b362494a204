// String-keyed registries for algorithms and adversaries.
//
// One table per concept is the single source of truth for the mapping
// between experiment vocabulary (CLI flags, JSON output, sweep specs) and
// the enums/factories that execute it. The ad-hoc parse_algorithm /
// parse_adversary switches that tools used to carry are deleted in favour
// of these; `--list-algorithms` / `--list-adversaries` and every "unknown
// name" diagnostic are generated from the same tables, so they can never
// drift apart. The tables themselves live in the harness
// (harness/runner.h, harness/adversary_table.h), where the runner and the
// search read them too; this layer adds name parsing and the catalogs.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "harness/runner.h"

namespace bil::api {

/// An algorithm's registry entry is its row of the harness algorithm table:
/// name, aliases, description, family, path policy, process factory and
/// namespace bound.
using AlgorithmInfo = harness::AlgorithmDescriptor;

/// An adversary's registry entry is its row of the harness adversary table:
/// name, aliases, description, fault model, fast-sim route, the knobs it
/// reads, and make(values) to build its spec.
using AdversaryInfo = harness::AdversaryDescriptor;

/// All registered algorithms, in enum order (harness::algorithm_table()).
[[nodiscard]] std::span<const AlgorithmInfo> algorithm_registry() noexcept;
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
