// The adversary-search genome: one serializable value describing a complete
// attack on one run.
//
// The repo's hand-coded adversaries each encode one idea (burst, sandwich,
// eager, targeted-winner, ...). The search subsystem replaces the idea with
// a *genome* — an explicit crash schedule (which round, which victim, which
// delivery subset) plus the targeted-mode and Byzantine-window knobs — and
// lets seeded optimizers (optimize.h) mutate it while an objective
// (evaluate.h) scores each candidate. Three properties make the genome a
// first-class artifact rather than an internal encoding:
//
//   1. **Replayable**: a genome plus its run seed determines the execution
//      bit-for-bit. Schedule-mode genomes are driven by a schedule-only
//      adversary (genome_adversary.h), so the crash-capable fast simulator
//      replays them identically to the engine; targeted-mode genomes reuse
//      the registered protocol-aware adversaries through the traffic
//      oracle. Byzantine windows are engine-only, like the registered
//      Byzantine kinds.
//   2. **Serializable**: to_json / parse_genome round-trip through a small
//      JSON document (schedule_json in genome.cpp), so a found worst case
//      is a file — `bil_fuzz --replay worst.json` re-executes it and
//      verifies the recorded outcome bit-for-bit, and the nastiest
//      schedules are pinned as regression fixtures in tests/contract_test.
//   3. **Bounded**: the victim of a crash gene is addressed by *rank into
//      the alive list* at its firing round, not by process id — every
//      mutation yields a well-formed schedule (victims are always alive),
//      so the optimizers never waste evaluations on invalid genomes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/runner.h"
#include "sim/adversaries.h"

namespace bil::search {

/// One crash event: at engine round `round`, crash the `victim_rank`-th
/// alive process (mod the alive count), delivering its final broadcast
/// according to `subset`.
struct CrashGene {
  sim::RoundNumber round = 0;
  std::uint32_t victim_rank = 0;
  sim::SubsetPolicy subset = sim::SubsetPolicy::kAlternating;
};

/// A complete, self-contained attack description. Everything needed to
/// reproduce the run is in the genome: algorithm, n, run seed, and the
/// attack itself.
struct ScheduleGenome {
  harness::Algorithm algorithm = harness::Algorithm::kBallsIntoLeaves;
  std::uint32_t n = 0;
  /// The run seed: protocol coins AND the adversary's subset-delivery RNG
  /// stream (derive_seed(run_seed, kSeedDomainAdversary, 0)), exactly as a
  /// registered adversary would consume them.
  std::uint64_t run_seed = 1;
  /// Crash budget t (sim::EngineConfig::max_crashes). The schedule may
  /// carry more genes than the budget; excess genes are inert, which keeps
  /// the mutation kernel simple.
  std::uint32_t budget = 0;
  /// Which adversary executes the genome. kNone (JSON "schedule"): the
  /// explicit crash schedule `crashes`, replayed by GenomeScheduleAdversary
  /// (schedule-only — fast-sim capable). Otherwise a registered kind on the
  /// traffic-oracle route ("targeted-winner", "targeted-announcer"), built
  /// from the genome's per_round/subset knobs and its budget.
  harness::AdversaryKind mode = harness::AdversaryKind::kNone;
  /// Schedule mode: the crash events, in any order (sorted at replay).
  std::vector<CrashGene> crashes;
  /// Registered modes: victims per firing round and the delivery subset.
  std::uint32_t per_round = 1;
  sim::SubsetPolicy subset = sim::SubsetPolicy::kRandomHalf;
  /// Optional Byzantine window riding on top of the crash schedule
  /// (engine-only, tree algorithms only): `byzantine` wire-corrupted
  /// senders over rounds [byzantine_start, byzantine_start +
  /// byzantine_rounds). 0 = no corruption.
  std::uint32_t byzantine = 0;
  sim::RoundNumber byzantine_start = 1;
  sim::RoundNumber byzantine_rounds = 0;
};

/// Canonical name for a delivery-subset policy ("silent" | "alternating" |
/// "random-half" | "all"); parse_subset_policy inverts it.
[[nodiscard]] const char* to_string(sim::SubsetPolicy policy) noexcept;
[[nodiscard]] sim::SubsetPolicy parse_subset_policy(std::string_view name);

/// The genome JSON name of a mode: "schedule" for kNone, else the kind's
/// name. parse_genome_mode inverts it, accepting "schedule" and the
/// traffic-oracle kinds of the adversary table.
[[nodiscard]] const char* genome_mode_name(
    harness::AdversaryKind mode) noexcept;
[[nodiscard]] harness::AdversaryKind parse_genome_mode(std::string_view name);

/// Serializes the genome (plus an optional recorded outcome, see
/// GenomeRecord) as a self-describing JSON document.
struct GenomeRecord {
  ScheduleGenome genome;
  /// Outcome recorded when the genome was found; replay verifies these
  /// bit-for-bit (0 = not recorded).
  std::uint32_t rounds = 0;
  std::uint32_t crashes = 0;
  std::uint64_t deliveries = 0;
};

[[nodiscard]] std::string to_json(const GenomeRecord& record);

/// Parses a document produced by to_json (tolerating reordered keys and
/// whitespace — found schedules get hand-edited). Throws ContractViolation
/// with a diagnostic on malformed input.
[[nodiscard]] GenomeRecord parse_genome(std::string_view json);

}  // namespace bil::search
