// The fast simulator: exact symbolic execution of Balls-into-Leaves, crash-
// free or under an oblivious crash adversary, on one canonical tree view.
//
// The paper's analysis (§5) observes: "Without crashes, local views of the
// tree are always identical, and we therefore focus on one local view." The
// full message-passing engine materializes n local views and delivers n²
// messages per round, capping practical sweeps near n ≈ 2¹¹; this simulator
// evolves the one common view directly, runs in O(n log n) per phase, and
// sweeps past n = 2¹⁸. With a null adversary it is round-for-round and
// placement-for-placement identical to the engine execution (asserted by
// tests), because both draw each ball's coins from the same derived stream
// and process movements in the same <R order.
//
// Crashes with subset delivery ("some balls may receive this broadcast,
// while others do not", §4) make views diverge — but the divergence is
// *transient and structured*, which is what this module exploits:
//
//   1. A victim crashed during a **path round** (2φ−1) affects only that
//      round's movement pass: recipients of its candidate path simulate its
//      capacity-clipped descent, non-recipients remove it at its <R turn.
//      The next position round removes it from every view (silent), and
//      position processing has no capacity interactions — so the crash's
//      entire effect is captured by partitioning the alive balls into
//      *delivery classes* (which victims' paths they received) and moving
//      each realized class (core/delivery_classes.h carries them as count
//      deltas on one base pass). Every ball's announced position — which
//      round 2 makes canonical everywhere — is its own class's outcome.
//   2. A victim crashed during the **init round or a position round**
//      persists one extra round as a *ghost*: a stale entry present only in
//      the views that received its final broadcast. A ghost influences
//      exactly two things — its holders' next target choice (subtree
//      capacities, node-mate ranks, halving mates) and the end-of-phase
//      halt check (a non-leaf ghost blocks its holders' "all balls at
//      leaves" test) — and is then purged at its <R turn in the next path
//      round. It can never deflect a correct ball's movement: a stale entry
//      at node μ inflates only the counts of μ's ancestors, and every ball
//      whose descent reads an ancestor of μ is iterated after μ's occupant
//      in <R order (the Proposition 1 argument in
//      core/balls_into_leaves.h), so movement simulations may simply omit
//      ghosts. Target choices are evaluated against a per-ball
//      ghost-adjusted capacity overlay instead of materialized views.
//
// Phase snapshots (CrashFastSimOptions::observer) show the canonical view
// after each position round 2φ: that round's victims have left it, its
// halt check has not yet run. That is where a BallsIntoLeavesProcess
// observer fires in the engine; without crashes it is every ball's view,
// with crashes it omits the ghosts that some views still hold.
//
// The adversary is replayed **bit-for-bit**: the simulator drives the same
// sim::Adversary object the engine harness would construct
// (harness::make_adversary), through sim::make_schedule_view, so victim
// selection, crash rounds and delivery-subset coin flips come from the
// identical RNG stream. Per-ball protocol coins likewise derive from
// (seed, kSeedDomainProcess, id). tests/fastsim_crash_test.cpp asserts
// equality with the engine — rounds, total rounds, crash counts, decided
// names and delivery counts — for every tree algorithm × oblivious
// adversary × subset policy on a shared grid.
//
// Cost: O(n log n) per phase. A crash round that realizes C delivery
// classes adds O(Σ|subset| + C·k) to partition the survivors among k
// victims, and then moves them in one base pass plus, for each of the other
// C − 1 classes, a re-simulation of only the balls whose descent reads a
// subtree count that differs from the base's (core/delivery_classes.h):
// in phase 1, where every ball sits at the root, that is most balls after
// the first victim the classes treat differently; from phase 2 on, only
// the balls on root paths through the victims' and the changed balls'
// nodes. Only changed outcomes are folded back. Classes past the eighth
// cost one more base pass per eight, and each carried class holds a count
// overlay of 5 bytes per node. C is 1 for kSilent/kAll deliveries, 2 for
// the eager cells' kAlternating rounds (membership is a parity), and at
// most 2^k (clamped by n) for k simultaneous kRandomHalf victims — so keep
// per-round victim counts moderate at large n (the report presets do; the
// engine remains the executor for dense random-half bursts). The adversary
// itself adds the O(Σ|subset|) it spends materializing delivery subsets.
//
// Protocol-aware adversaries — strategies that read the round's traffic
// instead of consulting only the schedule — run through
// run_fast_sim_targeted (core/fast_sim_targeted.h). It attaches each round's
// announcements to the adversary's view as a typed record
// (core::RoundTraffic) filled from the same symbolic state, so the
// adversary reads exactly what the engine's processes would have broadcast
// and commits the identical plan. run_fast_sim_crash drives the adversary
// through the schedule-only view (sim::make_schedule_view) alone.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/observer.h"
#include "core/policy.h"
#include "sim/adversary.h"

namespace bil::core {

struct CrashFastSimOptions {
  std::uint32_t n = 0;
  std::uint64_t seed = 0;
  PathPolicy policy = PathPolicy::kRandomWeighted;
  /// Adversary crash budget t (sim::EngineConfig::max_crashes); must be < n.
  std::uint32_t max_crashes = 0;
  /// Optional phase-boundary instrumentation; not owned, may be null.
  /// Receives the canonical view after each position round.
  PhaseObserver* observer = nullptr;
};

struct CrashFastSimResult {
  /// True when every non-crashed ball halted before the round cap.
  bool completed = false;
  /// Rounds until the last correct ball decided (the paper's metric;
  /// harness::RunSummary::rounds).
  std::uint32_t rounds = 0;
  /// Engine rounds executed until the protocol wound down.
  std::uint32_t total_rounds = 0;
  /// Crashes the adversary actually committed (≤ max_crashes; planned
  /// victims that halt before their crash round never crash).
  std::uint32_t crashes = 0;
  /// Physical deliveries, analytically exact: per round,
  /// (alive − crashed)² broadcast deliveries plus each victim's final
  /// messages to its surviving delivery subset — identical to what the
  /// engine's metrics would measure (asserted by tests).
  std::uint64_t deliveries = 0;
  /// Decided name per ball label (1-based), or 0 for crashed balls.
  std::vector<std::uint64_t> names;
};

/// Runs the simulation to completion. `adversary` may be null (the
/// failure-free run) and must be freshly constructed for this run's seed — its
/// internal RNG state is consumed exactly as an engine run would. The
/// adversary is driven through the schedule-only view
/// (sim::make_schedule_view) and must be schedule-only-drivable; the
/// protocol-aware ones take run_fast_sim_targeted (core/fast_sim_targeted.h).
[[nodiscard]] CrashFastSimResult run_fast_sim_crash(
    const CrashFastSimOptions& options, sim::Adversary* adversary);

/// Validates a fast-sim run's names to sim::validate_renaming's standard,
/// throwing ContractViolation otherwise: every correct ball decided
/// (exactly `crashes` carry the crashed sentinel 0), names lie in 1..n, no
/// duplicates.
void validate_fast_names(std::span<const std::uint64_t> names,
                         std::uint32_t n, std::uint32_t crashes);

}  // namespace bil::core
