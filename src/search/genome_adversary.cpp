#include "search/genome_adversary.h"

#include <algorithm>
#include <utility>

#include "core/seeds.h"
#include "harness/runner.h"
#include "sim/adversaries.h"
#include "tree/shape.h"
#include "util/contract.h"

namespace bil::search {

GenomeScheduleAdversary::GenomeScheduleAdversary(const ScheduleGenome& genome,
                                                 std::uint64_t seed)
    : sorted_(genome.crashes), rng_(seed) {
  std::stable_sort(sorted_.begin(), sorted_.end(),
                   [](const CrashGene& a, const CrashGene& b) {
                     return a.round < b.round;
                   });
}

void GenomeScheduleAdversary::schedule(const sim::RoundView& view,
                                       sim::CrashPlan& plan) {
  // Skip genes whose round already passed (their victims halted or the
  // budget ran dry before we got to them).
  while (next_ < sorted_.size() && sorted_[next_].round < view.round()) {
    ++next_;
  }
  std::uint32_t remaining = view.crash_budget_remaining();
  std::vector<sim::ProcessId> chosen;
  while (next_ < sorted_.size() && sorted_[next_].round == view.round()) {
    const CrashGene& gene = sorted_[next_++];
    const auto alive = view.alive();
    // Leave at least one process alive: a schedule that silences everyone
    // proves nothing about round counts (and the engine's budget is t < n
    // for the same reason).
    if (remaining == 0 || alive.size() <= chosen.size() + 1) {
      continue;
    }
    const sim::ProcessId victim =
        alive[gene.victim_rank % static_cast<std::uint32_t>(alive.size())];
    // Victims must be distinct within a round (engine contract); rank
    // aliasing after the modulo simply wastes the gene.
    if (std::find(chosen.begin(), chosen.end(), victim) != chosen.end()) {
      continue;
    }
    chosen.push_back(victim);
    --remaining;
    plan.crash(victim,
               sim::make_delivery_subset(view, victim, gene.subset, rng_));
  }
}

namespace {

/// Overlays a Byzantine corruption window on a crash-schedule adversary:
/// schedule() delegates to the genome's crash schedule, corrupt() to the
/// wire-corruption strategy. Engine-only, like every Byzantine kind.
class ByzantineOverlayAdversary final : public sim::Adversary {
 public:
  ByzantineOverlayAdversary(std::unique_ptr<sim::Adversary> crashes,
                            std::unique_ptr<sim::Adversary> corruption)
      : crashes_(std::move(crashes)), corruption_(std::move(corruption)) {}

  void schedule(const sim::RoundView& view, sim::CrashPlan& plan) override {
    if (crashes_ != nullptr) {
      crashes_->schedule(view, plan);
    }
  }

  void corrupt(const sim::RoundView& view,
               sim::CorruptionPlan& plan) override {
    corruption_->corrupt(view, plan);
  }

 private:
  std::unique_ptr<sim::Adversary> crashes_;
  std::unique_ptr<sim::Adversary> corruption_;
};

}  // namespace

std::unique_ptr<sim::Adversary> make_genome_adversary(
    const ScheduleGenome& genome,
    const std::shared_ptr<const tree::TreeShape>& shape) {
  std::unique_ptr<sim::Adversary> adversary;
  if (genome.mode != harness::AdversaryKind::kNone) {
    adversary = harness::make_adversary({.kind = genome.mode,
                                         .per_round = genome.per_round,
                                         .subset = genome.subset,
                                         .delay = {}},
                                        genome.n, genome.run_seed, shape);
  } else if (!genome.crashes.empty() && genome.budget > 0) {
    adversary = std::make_unique<GenomeScheduleAdversary>(
        genome, derive_seed(genome.run_seed, core::kSeedDomainAdversary, 0));
  }
  if (genome.byzantine > 0) {
    // Same construction as harness::make_adversary's bitflip kind: start at
    // round 1 at the earliest (init-round identities are authentic), its
    // own seed domain so corruption never perturbs the crash schedule.
    auto corruption = std::make_unique<sim::ByzantineCorruptionAdversary>(
        sim::ByzantineCorruptionAdversary::Options{
            .byzantine = genome.byzantine,
            .start_round = std::max<sim::RoundNumber>(genome.byzantine_start,
                                                      1),
            .rounds = genome.byzantine_rounds,
            .mode = sim::ByzantineCorruptionAdversary::Mode::kMixed},
        derive_seed(genome.run_seed, core::kSeedDomainByzantine, 0));
    return std::make_unique<ByzantineOverlayAdversary>(std::move(adversary),
                                                       std::move(corruption));
  }
  return adversary;
}

}  // namespace bil::search
