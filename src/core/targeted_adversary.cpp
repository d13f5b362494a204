#include "core/targeted_adversary.h"

#include <algorithm>

#include "core/messages.h"
#include "util/contract.h"

namespace bil::core {

TargetedCollisionAdversary::TargetedCollisionAdversary(
    std::shared_ptr<const tree::TreeShape> shape, Options options,
    std::uint64_t seed)
    : shape_(std::move(shape)), options_(options), rng_(seed) {
  BIL_REQUIRE(shape_ != nullptr, "targeted adversary needs the tree shape");
  if (options_.mode == Mode::kContendedWinner) {
    by_target_.resize(shape_->num_nodes());
  }
}

void TargetedCollisionAdversary::schedule(const sim::RoundView& view,
                                          sim::CrashPlan& plan) {
  if (view.round() == 0 || view.crash_budget_remaining() == 0) {
    return;
  }
  const bool path_round = view.round() % 2 == 1;
  if (options_.mode == Mode::kContendedWinner && path_round) {
    schedule_contended(view, traffic_of(view), plan);
  } else if (options_.mode == Mode::kDeepestAnnouncer && !path_round) {
    schedule_deepest(view, traffic_of(view), plan);
  }
}

RoundTraffic TargetedCollisionAdversary::traffic_of(
    const sim::RoundView& view) {
  if (view.traffic() != nullptr) {
    return *view.traffic();
  }
  // Each alive process's announcement is the first message in its outbox
  // that decodes to this round's type: a path on odd rounds, a position on
  // even ones. Anything else is not protocol traffic and is skipped.
  const std::uint32_t n = view.num_processes();
  decoded_labels_.resize(n);
  decoded_nodes_.resize(n);
  decoded_targets_.resize(n);
  const bool path_round = view.round() % 2 == 1;
  for (const sim::ProcessId id : view.alive()) {
    decoded_nodes_[id] = tree::kNoNode;
    decoded_targets_[id] = tree::kNoNode;
    for (const sim::OutboundMessage& message : view.outgoing(id)) {
      try {
        const Message decoded = decode_message(*message.payload);
        if (const auto* path = std::get_if<PathMsg>(&decoded);
            path != nullptr && path_round) {
          decoded_labels_[id] = path->label;
          decoded_nodes_[id] = path->start;
          decoded_targets_[id] = path->target;
          break;
        }
        if (const auto* position = std::get_if<PositionMsg>(&decoded);
            position != nullptr && !path_round) {
          decoded_labels_[id] = position->label;
          decoded_nodes_[id] = position->node;
          break;
        }
      } catch (const wire::WireError&) {
        // not protocol traffic; ignore
      }
    }
  }
  return RoundTraffic{.labels = decoded_labels_,
                      .nodes = decoded_nodes_,
                      .targets = decoded_targets_};
}

void TargetedCollisionAdversary::schedule_contended(
    const sim::RoundView& view, const RoundTraffic& traffic,
    sim::CrashPlan& plan) {
  // One counting pass in alive order tallies each target's claimants and
  // keeps its <R favourite: deepest start, then lowest label, the first
  // such claimant on a tie. Balls already at their target (the trivial
  // path of a ball holding a leaf) claim nothing.
  const std::uint32_t num_nodes = shape_->num_nodes();
  for (const sim::ProcessId id : view.alive()) {
    const tree::NodeId start = traffic.nodes[id];
    const tree::NodeId target = traffic.targets[id];
    if (start == target || target >= num_nodes) {
      continue;
    }
    const std::uint32_t depth = shape_->depth(start);
    Group& group = by_target_[target];
    if (group.size++ == 0 || depth > group.winner_depth ||
        (depth == group.winner_depth &&
         traffic.labels[id] < traffic.labels[group.winner])) {
      group.winner = id;
      group.winner_depth = depth;
    }
  }
  // The groups in ascending target order, resetting the tallies.
  groups_.clear();
  for (Group& group : by_target_) {
    if (group.size != 0) {
      groups_.push_back(group);
      group = Group{};
    }
  }
  // Most contended targets first. The tie order among equally contended
  // targets is part of the adversary's observable behaviour (the golden
  // cells pin it), and std::sort is not stable: its permutation is a
  // function of the comparator's outcomes alone. So the groups must enter
  // in ascending target order and be compared by size only, as in the
  // map-of-vectors grouping fastsim_targeted_test keeps as its reference.
  std::sort(groups_.begin(), groups_.end(),
            [](const Group& a, const Group& b) { return a.size > b.size; });
  std::uint32_t budget =
      std::min(options_.per_round, view.crash_budget_remaining());
  for (const Group& group : groups_) {
    if (budget == 0) {
      break;
    }
    plan.crash(group.winner, sim::make_delivery_subset(
                                 view, group.winner, options_.subset_policy,
                                 rng_));
    --budget;
  }
}

void TargetedCollisionAdversary::schedule_deepest(const sim::RoundView& view,
                                                  const RoundTraffic& traffic,
                                                  sim::CrashPlan& plan) {
  // Announcers in alive order, then deepest first. std::sort is not stable,
  // so, as above, the input order and the depth-only comparison are what
  // fix the order among equally deep announcers.
  announcers_.clear();
  for (const sim::ProcessId id : view.alive()) {
    if (traffic.nodes[id] != tree::kNoNode) {
      announcers_.emplace_back(shape_->depth(traffic.nodes[id]), id);
    }
  }
  std::sort(announcers_.begin(), announcers_.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  const std::uint32_t budget =
      std::min(options_.per_round, view.crash_budget_remaining());
  for (std::uint32_t i = 0; i < budget && i < announcers_.size(); ++i) {
    const sim::ProcessId victim = announcers_[i].second;
    plan.crash(victim, sim::make_delivery_subset(
                           view, victim, options_.subset_policy, rng_));
  }
}

}  // namespace bil::core
