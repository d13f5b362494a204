// Immutable binary-tree geometry over n leaves.
//
// The paper arranges the n target names as leaves of a binary tree of depth
// log n (§4). n is known a priori, so the shape is identical in every
// process; it is therefore built once per run and shared (read-only) by all
// local views. The paper assumes n is a power of two "to simplify
// exposition"; this implementation supports any n >= 1 by splitting
// left-heavy (left child gets ceil(k/2) of k leaves), which preserves every
// property the algorithm needs: capacities weight the coin flips, and
// subtree leaf ranges still nest.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/contract.h"

namespace bil::tree {

/// Dense node index in [0, 2n-1). The root is node 0; children ids are
/// assigned in preorder. Node ids are canonical: every process derives the
/// same shape from n, so node ids are meaningful on the wire.
using NodeId = std::uint32_t;

/// Sentinel for "no node" (parent of the root, children of leaves).
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// A node together with its subtree's leaf range: everything a downward
/// walk needs, without TreeShape's node records. Node ids are preorder over
/// the left-heavy split, so a subtree of k leaves is the id range
/// [node, node + 2k − 1), its left child is node + 1 with ⌈k/2⌉ leaves, and
/// its right child follows the left subtree's 2⌈k/2⌉ − 1 nodes with ⌊k/2⌋.
struct SubtreeCursor {
  NodeId node = 0;
  std::uint32_t first_leaf = 0;
  std::uint32_t leaves = 1;

  [[nodiscard]] constexpr bool is_leaf() const noexcept { return leaves == 1; }
  [[nodiscard]] constexpr SubtreeCursor left() const noexcept {
    return {node + 1, first_leaf, (leaves + 1) / 2};
  }
  [[nodiscard]] constexpr SubtreeCursor right() const noexcept {
    const std::uint32_t left_leaves = (leaves + 1) / 2;
    return {node + 2 * left_leaves, first_leaf + left_leaves,
            leaves - left_leaves};
  }
  /// The child whose leaf range holds leaf rank `leaf`. Requires an inner
  /// node and `leaf` within this subtree's range.
  [[nodiscard]] constexpr SubtreeCursor child_toward(
      std::uint32_t leaf) const noexcept {
    return leaf < first_leaf + (leaves + 1) / 2 ? left() : right();
  }
};

class TreeShape {
 public:
  /// Builds the canonical shape over `num_leaves` >= 1 leaves.
  explicit TreeShape(std::uint32_t num_leaves);

  /// Convenience: shared shape for reuse across many local views.
  [[nodiscard]] static std::shared_ptr<const TreeShape> make(
      std::uint32_t num_leaves) {
    return std::make_shared<const TreeShape>(num_leaves);
  }

  [[nodiscard]] std::uint32_t num_leaves() const noexcept {
    return num_leaves_;
  }
  [[nodiscard]] std::uint32_t num_nodes() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  /// Depth of the deepest leaf; ceil(log2 n) for this split.
  [[nodiscard]] std::uint32_t height() const noexcept { return height_; }

  [[nodiscard]] static constexpr NodeId root() noexcept { return 0; }

  [[nodiscard]] bool is_leaf(NodeId node) const {
    return nodes_.at(node).left == kNoNode;
  }
  [[nodiscard]] NodeId left(NodeId node) const { return nodes_.at(node).left; }
  [[nodiscard]] NodeId right(NodeId node) const {
    return nodes_.at(node).right;
  }
  [[nodiscard]] NodeId parent(NodeId node) const {
    return nodes_.at(node).parent;
  }
  [[nodiscard]] std::uint32_t depth(NodeId node) const {
    return nodes_.at(node).depth;
  }
  /// Number of leaves in the subtree rooted at `node` (the subtree's
  /// capacity in the paper's sense).
  [[nodiscard]] std::uint32_t leaf_count(NodeId node) const {
    return nodes_.at(node).leaf_count;
  }
  /// Left-to-right rank of the leftmost leaf in `node`'s subtree.
  [[nodiscard]] std::uint32_t first_leaf(NodeId node) const {
    return nodes_.at(node).first_leaf;
  }
  /// A cursor at `node`; walking down from it reads no further records.
  [[nodiscard]] SubtreeCursor cursor(NodeId node) const {
    const Node& record = nodes_.at(node);
    return {node, record.first_leaf, record.leaf_count};
  }

  /// Leaf node holding rank `rank` (0-based, left to right).
  [[nodiscard]] NodeId leaf_at(std::uint32_t rank) const {
    BIL_REQUIRE(rank < num_leaves_, "leaf rank out of range");
    return leaf_by_rank_[rank];
  }
  /// Rank of a leaf node; requires is_leaf(leaf).
  [[nodiscard]] std::uint32_t leaf_rank(NodeId leaf) const {
    BIL_REQUIRE(is_leaf(leaf), "leaf_rank on a non-leaf node");
    return first_leaf(leaf);
  }

  /// True iff `ancestor`'s subtree contains `node` (including equality).
  /// O(1) via leaf-range containment.
  [[nodiscard]] bool is_ancestor_or_self(NodeId ancestor, NodeId node) const {
    const Node& a = nodes_.at(ancestor);
    const Node& d = nodes_.at(node);
    return a.first_leaf <= d.first_leaf &&
           d.first_leaf + d.leaf_count <= a.first_leaf + a.leaf_count;
  }

  /// The child of `node` on the path toward `descendant`. Requires that
  /// `descendant` lies strictly below `node`.
  [[nodiscard]] NodeId child_toward(NodeId node, NodeId descendant) const {
    BIL_REQUIRE(node != descendant && is_ancestor_or_self(node, descendant),
                "child_toward requires a strict descendant");
    const NodeId left_child = left(node);
    return is_ancestor_or_self(left_child, descendant) ? left_child
                                                       : right(node);
  }

  /// Inclusive node path `from` -> `to`; requires `to` in `from`'s subtree.
  [[nodiscard]] std::vector<NodeId> path(NodeId from, NodeId to) const;

 private:
  struct Node {
    NodeId left = kNoNode;
    NodeId right = kNoNode;
    NodeId parent = kNoNode;
    std::uint32_t leaf_count = 0;
    std::uint32_t first_leaf = 0;
    std::uint32_t depth = 0;
  };

  NodeId build(std::uint32_t first_leaf, std::uint32_t count,
               std::uint32_t depth, NodeId parent);

  std::vector<Node> nodes_;
  std::vector<NodeId> leaf_by_rank_;
  std::uint32_t num_leaves_ = 0;
  std::uint32_t height_ = 0;
};

}  // namespace bil::tree
