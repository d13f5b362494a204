// A protocol-aware strong adaptive adversary for Balls-into-Leaves.
//
// The generic adversaries in sim/adversaries.h pick victims by id; this one
// reads the actual protocol traffic of the round being scheduled — which is
// precisely what the strong adaptive model permits: the adversary sees every
// round-r message (and hence every coin flip behind it) before deciding who
// crashes. Two attack modes:
//
//   kContendedWinner — on path rounds, read all candidate paths, find the
//     most contended target, and crash the claimant that would win it
//     (deepest start, then lowest label — the <R favourite), delivering the
//     fatal broadcast to every second survivor. Half the views then watch
//     the winner take the slot while the other half give it away, maximizing
//     view divergence exactly where the contention is.
//
//   kDeepestAnnouncer — on position rounds, crash the ball announcing the
//     deepest position (a freshly reached leaf when possible), again with an
//     alternating subset. This plants stale "phantom" entries at leaves in
//     half the views, attacking the silence-removal and (in eager mode)
//     eviction logic.
//
// Both modes read the round through one typed record, RoundTraffic. The
// crash fast sim fills it from its symbolic state and attaches it to the
// RoundView (core/fast_sim_targeted.h); on the engine, whose view carries
// none, the adversary decodes it from the outboxes itself. Either way the
// same grouping code picks the victims.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/adversaries.h"
#include "sim/adversary.h"
#include "tree/shape.h"
#include "util/rng.h"

namespace bil::core {

/// What every ball's broadcast announces in one round, indexed by process
/// id. Only the entries of the view's alive ids are read.
struct RoundTraffic {
  /// The label each ball announces.
  std::span<const sim::Label> labels;
  /// The node each ball announces: its start on path rounds, its position on
  /// position rounds; tree::kNoNode for a ball that announced neither.
  std::span<const tree::NodeId> nodes;
  /// Path rounds only: each ball's candidate target.
  std::span<const tree::NodeId> targets;
};

class TargetedCollisionAdversary final : public sim::Adversary {
 public:
  enum class Mode : std::uint8_t {
    kContendedWinner,
    kDeepestAnnouncer,
  };

  struct Options {
    Mode mode = Mode::kContendedWinner;
    /// Victims per firing round.
    std::uint32_t per_round = 1;
    sim::SubsetPolicy subset_policy = sim::SubsetPolicy::kAlternating;
  };

  /// `shape` must be the run's tree shape (for node depths).
  TargetedCollisionAdversary(std::shared_ptr<const tree::TreeShape> shape,
                             Options options, std::uint64_t seed);

  void schedule(const sim::RoundView& view, sim::CrashPlan& plan) override;

 private:
  /// The view's record, or, when it has none, one decoded from its
  /// outboxes into the decoded_* buffers.
  RoundTraffic traffic_of(const sim::RoundView& view);
  void schedule_contended(const sim::RoundView& view,
                          const RoundTraffic& traffic, sim::CrashPlan& plan);
  void schedule_deepest(const sim::RoundView& view,
                        const RoundTraffic& traffic, sim::CrashPlan& plan);

  /// A claimed target's contention: its claimant count and its <R
  /// favourite so far, with the favourite's start depth.
  struct Group {
    std::uint32_t size = 0;
    sim::ProcessId winner = sim::kNoProcess;
    std::uint32_t winner_depth = 0;
  };

  std::shared_ptr<const tree::TreeShape> shape_;
  Options options_;
  Rng rng_;
  // Buffers reused across rounds.
  std::vector<sim::Label> decoded_labels_;
  std::vector<tree::NodeId> decoded_nodes_;
  std::vector<tree::NodeId> decoded_targets_;
  /// by_target_[node]: the claimants of `node` this round; all empty
  /// between rounds (kContendedWinner).
  std::vector<Group> by_target_;
  std::vector<Group> groups_;
  /// (depth, id) of each announcer (kDeepestAnnouncer).
  std::vector<std::pair<std::uint32_t, sim::ProcessId>> announcers_;
};

}  // namespace bil::core
