// Candidate-path policies.
//
// Algorithm 1's correctness machinery (two-round phases, <R-ordered
// capacity-clipped movement, crash removal, position sync) is independent of
// *how* a ball picks its candidate path. This module isolates the choice, so
// one process implementation covers the paper's randomized algorithm, its
// early-terminating extension (§6), and the two deterministic baselines used
// by the separation experiment:
//
//   kRandomWeighted    — paper §4, lines 5–10: random walk to a leaf, each
//                        step weighted by the remaining capacities of the
//                        two subtrees.
//   kRankedSlack       — paper §6's deterministic rule applied in *every*
//                        phase: descend to the rank-th free slot, where rank
//                        is the ball's rank among the balls at its node.
//                        Comparison-based and deterministic; fast when
//                        failure-free, degrades under the sandwich attack.
//   kEarlyTerminating  — paper §6: kRankedSlack in phase 1 (collapsing the
//                        tree into subtrees of depth O(log f)), then
//                        kRandomWeighted.
//   kHalvingSplit      — deterministic comparison-based baseline that
//                        descends exactly one level per phase by splitting
//                        each node's balls by rank between the children
//                        (capacity-proportionally). Θ(log n) phases by
//                        construction — the complexity class of the
//                        Chaudhuri–Herlihy–Tuttle algorithm the paper cites
//                        as the deterministic optimum.
#pragma once

#include <algorithm>
#include <cstdint>

#include "tree/local_view.h"
#include "util/contract.h"
#include "util/rng.h"

namespace bil::core {

enum class PathPolicy : std::uint8_t {
  kRandomWeighted,
  kRankedSlack,
  kEarlyTerminating,
  kHalvingSplit,
  /// ABLATION of the paper's coin weighting: choose uniformly between the
  /// two subtrees whenever both have remaining capacity (still forced when
  /// one is full, so termination is preserved). Correct but slower: without
  /// capacity steering, random choices pile into half-full regions and the
  /// movement rule has to clip them (tests/ablation_test.cpp checks the cost).
  kRandomUniform,
};

[[nodiscard]] const char* to_string(PathPolicy policy) noexcept;

// The samplers below are templates over the view type: any type exposing
// `shape()` and `balls_in_subtree(NodeId)` with LocalTreeView's semantics
// works. The engine instantiates them with the concrete
// tree::LocalTreeView; the crash-capable fast simulator instantiates them
// with a ghost-adjusted overlay (core/fast_sim_crash.cpp) so that a ball
// whose view still contains a crashed peer's stale entry draws exactly the
// coins the engine's diverged view would. They walk with a
// tree::SubtreeCursor, so no step reads the shape's node records: each
// step reads two subtree counts and nothing else.

/// The paper's RemainingCapacity of the cursor's subtree in `view`,
/// saturating at 0 like tree::LocalTreeView::remaining_capacity (stale
/// crashed entries can overfill a subtree).
template <typename View>
[[nodiscard]] std::uint64_t spare_capacity(const View& view,
                                           const tree::SubtreeCursor& at) {
  const std::uint32_t balls = view.balls_in_subtree(at.node);
  return balls >= at.leaves ? 0 : at.leaves - balls;
}

/// ABLATION sampler (PathPolicy::kRandomUniform): like the paper's walk but
/// with unweighted 1/2 coins wherever both subtrees have capacity.
template <typename View>
[[nodiscard]] tree::NodeId sample_uniform_leaf(const View& view,
                                               tree::NodeId from, Rng& rng) {
  tree::SubtreeCursor at = view.shape().cursor(from);
  while (!at.is_leaf()) {
    const tree::SubtreeCursor left = at.left();
    const tree::SubtreeCursor right = at.right();
    const std::uint64_t cap_left = spare_capacity(view, left);
    const std::uint64_t cap_right = spare_capacity(view, right);
    if (cap_left + cap_right == 0) {
      return view.shape().leaf_at(at.first_leaf);  // see sample_weighted_leaf
    }
    if (cap_left == 0) {
      at = right;
    } else if (cap_right == 0) {
      at = left;
    } else {
      at = rng.bernoulli_ratio(1, 2) ? left : right;
    }
  }
  return at.node;
}

/// Paper §4, Algorithm 1 lines 5–10. Starting at `from`, repeatedly choose
/// the left child with probability RC(left) / (RC(left) + RC(right)) until a
/// leaf is reached; returns that leaf.
///
/// (The paper's pseudocode writes the denominator as RemainingCapacity(η),
/// which differs from RC(left)+RC(right) by the number of balls sitting at η
/// itself and is 0 for a fully loaded root; the prose — "weighted by the
/// remaining capacity of each subtree", "if one subtree has no remaining
/// capacity, bi chooses the other with probability 1" — pins down the
/// normalization used here.)
///
/// If the view is transiently corrupted by stale crashed entries so that
/// both subtrees below some node read full, the walk stops early and the
/// leftmost leaf below that node is returned; movement clips at the full
/// subtree anyway, so the choice is immaterial.
template <typename View>
[[nodiscard]] tree::NodeId sample_weighted_leaf(const View& view,
                                                tree::NodeId from, Rng& rng) {
  tree::SubtreeCursor at = view.shape().cursor(from);
  while (!at.is_leaf()) {
    const tree::SubtreeCursor left = at.left();
    const tree::SubtreeCursor right = at.right();
    const std::uint64_t cap_left = spare_capacity(view, left);
    const std::uint64_t cap_right = spare_capacity(view, right);
    if (cap_left + cap_right == 0) {
      // Both subtrees read full (possible only through stale crashed
      // entries). Movement will clip at this node; aim anywhere below.
      return view.shape().leaf_at(at.first_leaf);
    }
    at = rng.bernoulli_ratio(cap_left, cap_left + cap_right) ? left : right;
  }
  return at.node;
}

/// Deterministic rank-indexed descent: returns the leaf reached from `from`
/// by repeatedly entering the child holding the rank-th unit of remaining
/// capacity (left child's units first). With all balls at the root and rank
/// = the ball's rank in OrderedBalls(), this is exactly §6's "path
/// deterministically towards the leaf ranked by b_i". Requires nothing of
/// `rank`; out-of-range ranks are clamped to the available slack (movement
/// would clip them regardless).
template <typename View>
[[nodiscard]] tree::NodeId ranked_slack_leaf(const View& view,
                                             tree::NodeId from,
                                             std::uint64_t rank) {
  tree::SubtreeCursor at = view.shape().cursor(from);
  while (!at.is_leaf()) {
    const tree::SubtreeCursor left = at.left();
    const tree::SubtreeCursor right = at.right();
    const std::uint64_t cap_left = spare_capacity(view, left);
    const std::uint64_t cap_right = spare_capacity(view, right);
    if (cap_left + cap_right == 0) {
      return view.shape().leaf_at(at.first_leaf);  // see sample_weighted_leaf
    }
    // Clamp out-of-range ranks (possible under divergent views) to the last
    // available slot; the capacity-clipped movement makes any target safe.
    rank = std::min(rank, cap_left + cap_right - 1);
    if (rank < cap_left) {
      at = left;
    } else {
      rank -= cap_left;
      at = right;
    }
  }
  return at.node;
}

/// One-level halving step: returns the child of `from` assigned to the ball
/// of rank `rank` among the `mates` balls currently at `from`, splitting
/// ranks between the children in proportion to their remaining capacities
/// (never assigning more balls to a child than it can hold). Requires
/// `from` to be an inner node and rank < mates.
template <typename View>
[[nodiscard]] tree::NodeId halving_child(const View& view, tree::NodeId from,
                                         std::uint32_t rank,
                                         std::uint32_t mates) {
  const tree::SubtreeCursor at = view.shape().cursor(from);
  BIL_REQUIRE(!at.is_leaf(), "halving_child requires an inner node");
  BIL_REQUIRE(rank < mates, "rank must be below the node's ball count");
  const tree::NodeId left = at.left().node;
  const tree::NodeId right = at.right().node;
  const std::uint64_t cap_left = spare_capacity(view, at.left());
  const std::uint64_t cap_right = spare_capacity(view, at.right());
  if (cap_left + cap_right == 0) {
    return left;  // stale-entry corner; movement clips immediately
  }
  // Send ranks [0, quota) left and the rest right, with the quota
  // proportional to the left subtree's share of the slack but clamped so
  // that neither side is assigned more balls than it can absorb (when the
  // balls do fit, i.e. mates <= cap_left + cap_right).
  const std::uint64_t m = mates;
  std::uint64_t quota = (m * cap_left + (cap_left + cap_right) / 2) /
                        (cap_left + cap_right);
  quota = std::min(quota, cap_left);
  if (m > quota + cap_right) {
    // The right side cannot take more than cap_right; shift the excess left
    // (re-clamped for the stale-overfull corner, where movement clips).
    quota = std::min(m - cap_right, cap_left);
  }
  return rank < quota ? left : right;
}

/// Rank of `ball` among the balls at its current node, by label order.
/// O(registry size).
[[nodiscard]] std::uint32_t rank_among_node_mates(
    const tree::LocalTreeView& view, sim::Label ball);

/// True when `policy` reads the ball's rank among its node mates (and, for
/// kHalvingSplit, their count) in 1-based phase `phase`.
[[nodiscard]] constexpr bool needs_ranks(PathPolicy policy,
                                         std::uint32_t phase) noexcept {
  return policy == PathPolicy::kRankedSlack ||
         policy == PathPolicy::kHalvingSplit ||
         (policy == PathPolicy::kEarlyTerminating && phase == 1);
}

/// The candidate target of a ball at inner node `current` in 1-based phase
/// `phase` (a ball on a leaf keeps its trivial path; callers return early
/// for it). `rank()` and `mates()` give the ball's rank among its node mates
/// and their count; they are called only when needs_ranks(policy, phase),
/// so a caller may compute them lazily. Coins come from `rng`, the ball's
/// own stream, and only the random policies draw them.
template <typename View, typename Rank, typename Mates>
[[nodiscard]] tree::NodeId choose_target(PathPolicy policy,
                                         std::uint32_t phase, const View& view,
                                         tree::NodeId current, Rng& rng,
                                         const Rank& rank,
                                         const Mates& mates) {
  switch (policy) {
    case PathPolicy::kRandomWeighted:
      return sample_weighted_leaf(view, current, rng);
    case PathPolicy::kRankedSlack:
      return ranked_slack_leaf(view, current, rank());
    case PathPolicy::kEarlyTerminating:
      // §6: deterministic rank-indexed leaf in phase 1 — with all balls at
      // the root, the rank among node mates *is* the rank in
      // OrderedBalls() — then the randomized rule.
      return phase == 1 ? ranked_slack_leaf(view, current, rank())
                        : sample_weighted_leaf(view, current, rng);
    case PathPolicy::kHalvingSplit:
      return halving_child(view, current, rank(), mates());
    case PathPolicy::kRandomUniform:
      return sample_uniform_leaf(view, current, rng);
  }
  BIL_ENSURE(false, "unreachable: unknown path policy");
  return tree::kNoNode;
}

}  // namespace bil::core
