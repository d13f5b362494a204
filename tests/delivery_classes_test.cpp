// Differential test of the delta delivery-class mover (core/delivery_classes)
// against the full-pass class loop it replaced, kept here as the reference:
// one copy of the view and one <R movement pass per realized delivery class.
//
// Every subset policy × path policy, 1–6 victims per path round, n = 1, 2
// and 2^k ± 1, phase after phase until every ball is on a leaf; the two
// must agree on every survivor's position after every path round. Random
// half deliveries with six victims realize dozens of classes, so rounds
// that need several base passes are covered too.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/delivery_classes.h"
#include "core/policy.h"
#include "sim/adversaries.h"
#include "sim/adversary.h"
#include "tree/local_view.h"
#include "util/rng.h"

namespace bil::core {
namespace {

using sim::ProcessId;
using tree::NodeId;

/// The reference: the class of ball b is the ascending list of victim
/// indices whose path b received; each realized class copies the view and
/// runs the whole <R pass, moving received victims and removing the others
/// at their turn; each survivor then lands at its own class's outcome.
void move_full_pass(tree::LocalTreeView& view, std::span<const NodeId> targets,
                    std::span<const ProcessId> alive,
                    std::span<const ProcessId> victims,
                    std::span<const std::vector<ProcessId>> recipients) {
  const std::uint32_t n = view.shape().num_leaves();
  std::vector<char> survivor(n, 0);
  for (const ProcessId id : alive) {
    survivor[id] = 1;
  }
  std::vector<std::uint32_t> victim_index(n, 0);
  for (std::uint32_t v = 0; v < victims.size(); ++v) {
    survivor[victims[v]] = 0;
    victim_index[victims[v]] = v;
  }
  std::vector<std::vector<std::uint32_t>> received(n);
  for (std::uint32_t v = 0; v < victims.size(); ++v) {
    for (const ProcessId recipient : recipients[v]) {
      if (survivor[recipient] != 0) {
        received[recipient].push_back(v);
      }
    }
  }
  std::map<std::vector<std::uint32_t>, std::vector<ProcessId>> classes;
  for (const ProcessId id : alive) {
    if (survivor[id] != 0) {
      classes[received[id]].push_back(id);
    }
  }
  std::vector<NodeId> new_pos(n, tree::kNoNode);
  for (const auto& [key, members] : classes) {
    tree::LocalTreeView sim_view = view;
    for (const sim::Label label : sim_view.ordered_balls()) {
      const auto id = static_cast<ProcessId>(label);
      if (survivor[id] == 0 &&
          !std::binary_search(key.begin(), key.end(), victim_index[id])) {
        sim_view.remove(label);
        continue;
      }
      sim_view.descend_toward(label, targets[id]);
    }
    for (const ProcessId id : members) {
      new_pos[id] = sim_view.current(id);
    }
  }
  for (const ProcessId victim : victims) {
    view.remove(victim);
  }
  for (const auto& [key, members] : classes) {
    for (const ProcessId id : members) {
      view.reposition(id, new_pos[id]);
    }
  }
}

/// Candidate targets for every alive ball, against the common view.
std::vector<NodeId> choose_targets(const tree::LocalTreeView& view,
                                   PathPolicy policy, std::uint32_t phase,
                                   std::span<const ProcessId> alive,
                                   std::vector<Rng>& rngs) {
  const tree::TreeShape& shape = view.shape();
  std::vector<std::uint32_t> seen_at(shape.num_nodes(), 0);
  std::vector<std::uint32_t> rank(shape.num_leaves(), 0);
  for (const ProcessId id : alive) {  // alive is ascending: label order
    rank[id] = seen_at[view.current(id)]++;
  }
  std::vector<NodeId> targets(shape.num_leaves(), tree::kNoNode);
  for (const ProcessId id : alive) {
    const NodeId current = view.current(id);
    targets[id] =
        shape.is_leaf(current)
            ? current
            : choose_target(
                  policy, phase, view, current, rngs[id],
                  [&] { return rank[id]; },
                  [&] { return seen_at[current]; });
  }
  return targets;
}

std::string describe(PathPolicy policy, sim::SubsetPolicy subset,
                     std::uint32_t n, std::uint64_t seed) {
  return std::string(to_string(policy)) + " subset " +
         std::to_string(static_cast<int>(subset)) + " n=" + std::to_string(n) +
         " seed=" + std::to_string(seed);
}

void run_scenario(PathPolicy policy, sim::SubsetPolicy subset,
                  std::uint32_t n, std::uint64_t seed) {
  const auto shape = tree::TreeShape::make(n);
  tree::LocalTreeView view(shape);
  std::vector<sim::Label> labels(n);
  std::vector<ProcessId> alive(n);
  std::vector<Rng> rngs;
  for (std::uint32_t id = 0; id < n; ++id) {
    labels[id] = id;
    alive[id] = id;
    rngs.emplace_back(seed * 7919 + id);
  }
  view.insert_all_at_root(labels);
  Rng adversary(seed);
  DeliveryClassMover mover(n);
  for (std::uint32_t phase = 1; phase <= 64 && !view.all_at_leaves();
       ++phase) {
    const std::vector<NodeId> targets =
        choose_targets(view, policy, phase, alive, rngs);
    // 1–6 distinct victims, always leaving one survivor.
    std::vector<ProcessId> pool = alive;
    const auto wanted = static_cast<std::uint32_t>(1 + adversary.below(6));
    const std::uint32_t count =
        std::min<std::uint32_t>(wanted, static_cast<std::uint32_t>(pool.size()) - 1);
    std::vector<ProcessId> victims;
    std::vector<std::vector<ProcessId>> recipients;
    const sim::RoundView round_view =
        sim::make_schedule_view(2 * phase - 1, n, alive, count);
    for (std::uint32_t v = 0; v < count; ++v) {
      const auto pick = static_cast<std::size_t>(adversary.below(pool.size()));
      victims.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
      recipients.push_back(
          sim::make_delivery_subset(round_view, victims.back(), subset,
                                    adversary));
    }
    tree::LocalTreeView reference = view;
    mover.move(view, targets, alive, victims, recipients);
    move_full_pass(reference, targets, alive, victims, recipients);

    std::vector<ProcessId> survivors;
    for (const ProcessId id : alive) {
      if (std::find(victims.begin(), victims.end(), id) == victims.end()) {
        survivors.push_back(id);
      }
    }
    ASSERT_EQ(view.ball_count(), reference.ball_count())
        << describe(policy, subset, n, seed) << " phase " << phase;
    for (const ProcessId id : survivors) {
      ASSERT_EQ(view.current(id), reference.current(id))
          << describe(policy, subset, n, seed) << " phase " << phase
          << " ball " << id;
    }
    for (const ProcessId victim : victims) {
      ASSERT_FALSE(view.contains(victim));
    }
    view.check_capacity_invariant(/*strict=*/false);
    alive = survivors;
  }
}

TEST(DeliveryClasses, DeltasMatchAFullPassPerClass) {
  std::vector<std::uint32_t> sizes = {1, 2};
  for (std::uint32_t k = 2; k <= 9; ++k) {
    sizes.push_back((1u << k) - 1);
    sizes.push_back((1u << k) + 1);
  }
  for (const PathPolicy policy :
       {PathPolicy::kRandomWeighted, PathPolicy::kRankedSlack,
        PathPolicy::kEarlyTerminating, PathPolicy::kHalvingSplit,
        PathPolicy::kRandomUniform}) {
    for (const sim::SubsetPolicy subset :
         {sim::SubsetPolicy::kSilent, sim::SubsetPolicy::kAlternating,
          sim::SubsetPolicy::kRandomHalf, sim::SubsetPolicy::kAll}) {
      for (const std::uint32_t n : sizes) {
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
          run_scenario(policy, subset, n, seed);
          if (HasFatalFailure()) {
            return;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace bil::core
