#include "core/targeted_adversary.h"

#include <algorithm>
#include <vector>

#include "core/messages.h"
#include "util/contract.h"

namespace bil::core {

namespace {

/// Decoded round traffic of one process (first protocol message found in its
/// outbox, which is all our processes ever send per round).
template <typename T>
std::vector<std::pair<sim::ProcessId, T>> decode_round(
    const sim::RoundView& view) {
  std::vector<std::pair<sim::ProcessId, T>> out;
  for (sim::ProcessId id : view.alive()) {
    for (const sim::OutboundMessage& message : view.outgoing(id)) {
      try {
        const Message decoded = decode_message(*message.payload);
        if (const T* msg = std::get_if<T>(&decoded)) {
          out.emplace_back(id, *msg);
          break;
        }
      } catch (const wire::WireError&) {
        // not protocol traffic; ignore
      }
    }
  }
  return out;
}

}  // namespace

TargetedCollisionAdversary::TargetedCollisionAdversary(
    std::shared_ptr<const tree::TreeShape> shape, Options options,
    std::uint64_t seed)
    : shape_(std::move(shape)), options_(options), rng_(seed) {
  BIL_REQUIRE(shape_ != nullptr, "targeted adversary needs the tree shape");
}

void TargetedCollisionAdversary::schedule(const sim::RoundView& view,
                                          sim::CrashPlan& plan) {
  if (view.round() == 0 || view.crash_budget_remaining() == 0) {
    return;
  }
  const bool path_round = view.round() % 2 == 1;
  if (options_.mode == Mode::kContendedWinner && path_round) {
    schedule_contended(view, plan);
  } else if (options_.mode == Mode::kDeepestAnnouncer && !path_round) {
    schedule_deepest(view, plan);
  }
}

void TargetedCollisionAdversary::schedule_contended(const sim::RoundView& view,
                                                    sim::CrashPlan& plan) {
  const auto paths = decode_round<PathMsg>(view);
  // Group claimants by target; ignore balls already sitting at their target
  // (their "path" is the trivial one — they hold a leaf already). One flat
  // vector, stable-sorted by target: each group is a contiguous run in
  // ascending target order, its claimants in alive (outbox) order.
  struct Claimant {
    tree::NodeId target;
    sim::ProcessId id;
    std::uint32_t start_depth;
    sim::Label label;
  };
  std::vector<Claimant> claimants;
  claimants.reserve(paths.size());
  for (const auto& [id, msg] : paths) {
    if (msg.start == msg.target || msg.target >= shape_->num_nodes()) {
      continue;
    }
    claimants.push_back(
        Claimant{msg.target, id, shape_->depth(msg.start), msg.label});
  }
  std::stable_sort(claimants.begin(), claimants.end(),
                   [](const Claimant& a, const Claimant& b) {
                     return a.target < b.target;
                   });
  // Within a group the <R favourite (deepest start, then lowest label; the
  // first such claimant on a tie) is the ball whose loss hurts most.
  struct Group {
    std::size_t size;
    sim::ProcessId winner;
  };
  std::vector<Group> groups;
  for (auto begin = claimants.begin(); begin != claimants.end();) {
    const auto end =
        std::find_if(begin, claimants.end(), [&](const Claimant& c) {
          return c.target != begin->target;
        });
    const auto winner = std::min_element(
        begin, end, [](const Claimant& a, const Claimant& b) {
          if (a.start_depth != b.start_depth) {
            return a.start_depth > b.start_depth;
          }
          return a.label < b.label;
        });
    groups.push_back(
        Group{static_cast<std::size_t>(end - begin), winner->id});
    begin = end;
  }
  // Most contended targets first. The tie order among equally contended
  // targets is part of the adversary's observable behaviour (the golden
  // cells pin it), and std::sort is not stable: its permutation is a
  // function of the comparator's outcomes alone. So the groups must enter
  // in ascending target order and be compared by size only, as in the
  // map-of-vectors grouping fastsim_targeted_test keeps as its reference.
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    return a.size > b.size;
  });
  std::uint32_t budget =
      std::min(options_.per_round, view.crash_budget_remaining());
  for (const Group& group : groups) {
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
                                                  sim::CrashPlan& plan) {
  auto positions = decode_round<PositionMsg>(view);
  std::sort(positions.begin(), positions.end(),
            [this](const auto& a, const auto& b) {
              return shape_->depth(a.second.node) >
                     shape_->depth(b.second.node);
            });
  const std::uint32_t budget =
      std::min(options_.per_round, view.crash_budget_remaining());
  for (std::uint32_t i = 0; i < budget && i < positions.size(); ++i) {
    const sim::ProcessId victim = positions[i].first;
    plan.crash(victim, sim::make_delivery_subset(
                           view, victim, options_.subset_policy, rng_));
  }
}

}  // namespace bil::core
