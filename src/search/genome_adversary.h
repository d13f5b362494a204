// Schedule-only replay of a schedule-mode genome.
//
// The adversary honours the schedule-only contract of sim/adversaries.h: it
// reads only round(), alive(), crash_budget_remaining() and its own seeded
// RNG (consumed through sim::make_delivery_subset, exactly like the
// registered crash strategies). That single constraint is what makes every
// searched schedule replayable bit-for-bit on the crash-capable fast
// simulator (core/fast_sim_crash.h) — evaluate.h constructs a fresh
// adversary per candidate and runs thousands of schedules per second
// through the symbolic backend, and the engine reproduces any of them
// exactly for verification.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "search/genome.h"
#include "sim/adversary.h"
#include "util/rng.h"

namespace bil::search {

class GenomeScheduleAdversary final : public sim::Adversary {
 public:
  /// `seed` must be derive_seed(run_seed, core::kSeedDomainAdversary, 0) —
  /// the same stream a registered adversary would draw subset coins from,
  /// so engine and fast-sim replays consume identical coins.
  GenomeScheduleAdversary(const ScheduleGenome& genome, std::uint64_t seed);

  void schedule(const sim::RoundView& view, sim::CrashPlan& plan) override;

 private:
  /// Genes sorted by round; next_ advances monotonically (rounds only move
  /// forward), so a run costs O(genes) schedule work overall.
  std::vector<CrashGene> sorted_;
  std::size_t next_ = 0;
  Rng rng_;
};

/// Builds the adversary a genome describes, with harness::make_adversary's
/// seeding: schedule-mode genomes get a GenomeScheduleAdversary, the others
/// their registered kind built by harness::make_adversary from
/// {kind, per_round, subset} (the targeted kinds need the tree `shape`),
/// and a
/// genome with a Byzantine window gets a composite that overlays wire
/// corruption (engine-only) on the crash schedule. Returns null when the
/// genome attacks nothing (no genes within budget, no corruption).
[[nodiscard]] std::unique_ptr<sim::Adversary> make_genome_adversary(
    const ScheduleGenome& genome,
    const std::shared_ptr<const tree::TreeShape>& shape);

}  // namespace bil::search
