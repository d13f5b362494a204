// String-keyed registries for algorithms and adversaries.
//
// One table per concept is the single source of truth for the mapping
// between experiment vocabulary (CLI flags, JSON output, sweep specs) and
// the enums/factories that execute it. The ad-hoc parse_algorithm /
// parse_adversary switches that tools used to carry are deleted in favour
// of these; `--list-algorithms` / `--list-adversaries` and every "unknown
// name" diagnostic are generated from the same tables, so they can never
// drift apart.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/policy.h"
#include "harness/runner.h"

namespace bil::api {

/// Free-form knobs an adversary factory may consume (mirrors the CLI
/// surface: --crashes, --burst-round, ...). Factories read the fields
/// relevant to their kind and ignore the rest.
struct AdversaryKnobs {
  /// Crash budget t (and the planned crash count for oblivious/burst).
  std::uint32_t crashes = 0;
  /// Burst round / eager start round.
  sim::RoundNumber when = 1;
  /// Oblivious crash-round horizon.
  sim::RoundNumber horizon = 8;
  /// Victims per firing round (sandwich/eager/targeted).
  std::uint32_t per_round = 1;
  sim::SubsetPolicy subset = sim::SubsetPolicy::kRandomHalf;
  /// Byzantine budget f (wire-corrupting senders; byzantine-* kinds only).
  std::uint32_t byzantine = 0;
  /// Corrupting-round window for the byzantine kinds; 0 = unbounded.
  sim::RoundNumber byzantine_rounds = 0;
  /// Delay bound d for the delay kinds (--delay): each batch is delayed
  /// uniformly in [1, d] ticks (pre-GST only, for the gst kind). d = 1 is
  /// bit-identical to the synchronous run.
  std::uint32_t max_delay = 4;
  /// Global stabilization tick for the gst kind (--gst).
  sim::VirtualTime gst = 8;
  /// on_timeout budget in ticks for the delay kinds (--timeout); 0 = off.
  sim::VirtualTime timeout = 0;
};

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
  /// True for the tree-descent algorithms the fast single-view simulator
  /// can execute (everything except the gossip / naive-bins baselines).
  bool fast_sim_capable = false;
  /// The candidate-path policy backing a tree-based algorithm; meaningful
  /// only when fast_sim_capable.
  core::PathPolicy policy = core::PathPolicy::kRandomWeighted;
};

struct AdversaryInfo {
  harness::AdversaryKind kind;
  /// Canonical name — identical to harness::to_string(kind).
  std::string name;
  std::vector<std::string> aliases;
  std::string description;
  /// Which fault model the strategy exercises: "crash" (processes stop;
  /// every message sent is genuine), "byzantine" (faulty senders' wire
  /// traffic is rewritten per recipient — garbled, forged, or equivocated —
  /// while the engine still authenticates Envelope::from), or "delay"
  /// (nothing fails; the adversary schedules when message batches arrive —
  /// sim/scheduler.h). Groups the --list-adversaries output and tags JSON
  /// results.
  std::string fault_model = "crash";
  /// Timing model the strategy runs under: "sync" (the lock-step engine
  /// fabric — every kind that existed before delay scheduling) or
  /// "async-only" (the delay kinds: they *are* the DeliveryScheduler, so
  /// they only exist on the engine). Shown as the
  /// `timing` column of --list-adversaries.
  std::string timing = "sync";
  /// True when the crash-capable fast simulator can replay this strategy
  /// bit-for-bit: the schedule-only kinds (none, oblivious, burst, eager,
  /// sandwich) through sim::make_schedule_view, and the protocol-aware
  /// targeted kinds through synthesized round traffic
  /// (core/fast_sim_targeted.h). The byzantine kinds opt out: corruption
  /// rewrites materialized per-recipient wire traffic, which the
  /// single-view simulator has no representation for — they need the full
  /// engine (`--backend engine`).
  bool fast_sim_capable = false;
  /// Builds a fully-populated spec of this kind from the generic knobs.
  std::function<harness::AdversarySpec(const AdversaryKnobs&)> make;
};

/// All registered algorithms, in enum order.
[[nodiscard]] const std::vector<AlgorithmInfo>& algorithm_registry();
/// All registered adversaries, in enum order.
[[nodiscard]] const std::vector<AdversaryInfo>& adversary_registry();

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
