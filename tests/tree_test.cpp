// Unit tests for the tree module: shape geometry over arbitrary n, and the
// LocalTreeView's capacity accounting, <R ordering, and clipped descent.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "tree/local_view.h"
#include "tree/shape.h"
#include "util/contract.h"

namespace bil::tree {
namespace {

// ---- TreeShape --------------------------------------------------------------

TEST(Shape, SingleLeafTree) {
  const TreeShape shape(1);
  EXPECT_EQ(shape.num_nodes(), 1u);
  EXPECT_EQ(shape.height(), 0u);
  EXPECT_TRUE(shape.is_leaf(TreeShape::root()));
  EXPECT_EQ(shape.leaf_at(0), TreeShape::root());
}

TEST(Shape, NodeCountIsTwoNMinusOne) {
  for (std::uint32_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 13u, 100u, 1024u}) {
    const TreeShape shape(n);
    EXPECT_EQ(shape.num_nodes(), 2 * n - 1) << "n=" << n;
    EXPECT_EQ(shape.num_leaves(), n);
  }
}

TEST(Shape, HeightIsCeilLog2) {
  EXPECT_EQ(TreeShape(1).height(), 0u);
  EXPECT_EQ(TreeShape(2).height(), 1u);
  EXPECT_EQ(TreeShape(3).height(), 2u);
  EXPECT_EQ(TreeShape(4).height(), 2u);
  EXPECT_EQ(TreeShape(5).height(), 3u);
  EXPECT_EQ(TreeShape(8).height(), 3u);
  EXPECT_EQ(TreeShape(9).height(), 4u);
  EXPECT_EQ(TreeShape(1024).height(), 10u);
  EXPECT_EQ(TreeShape(1025).height(), 11u);
}

TEST(Shape, LeavesAreRankedLeftToRight) {
  for (std::uint32_t n : {2u, 5u, 8u, 31u}) {
    const TreeShape shape(n);
    std::set<NodeId> leaves;
    for (std::uint32_t rank = 0; rank < n; ++rank) {
      const NodeId leaf = shape.leaf_at(rank);
      EXPECT_TRUE(shape.is_leaf(leaf));
      EXPECT_EQ(shape.leaf_rank(leaf), rank);
      leaves.insert(leaf);
    }
    EXPECT_EQ(leaves.size(), n) << "n=" << n;
  }
}

TEST(Shape, ParentChildConsistency) {
  const TreeShape shape(11);
  for (NodeId node = 0; node < shape.num_nodes(); ++node) {
    if (shape.is_leaf(node)) {
      continue;
    }
    EXPECT_EQ(shape.parent(shape.left(node)), node);
    EXPECT_EQ(shape.parent(shape.right(node)), node);
    EXPECT_EQ(shape.depth(shape.left(node)), shape.depth(node) + 1);
    EXPECT_EQ(shape.leaf_count(node), shape.leaf_count(shape.left(node)) +
                                          shape.leaf_count(shape.right(node)));
  }
  EXPECT_EQ(shape.parent(TreeShape::root()), kNoNode);
}

TEST(Shape, LeftHeavySplit) {
  const TreeShape shape(5);  // left subtree gets ceil(5/2)=3 leaves
  EXPECT_EQ(shape.leaf_count(shape.left(TreeShape::root())), 3u);
  EXPECT_EQ(shape.leaf_count(shape.right(TreeShape::root())), 2u);
}

TEST(Shape, AncestorTest) {
  const TreeShape shape(8);
  const NodeId root = TreeShape::root();
  const NodeId left = shape.left(root);
  const NodeId right = shape.right(root);
  EXPECT_TRUE(shape.is_ancestor_or_self(root, root));
  EXPECT_TRUE(shape.is_ancestor_or_self(root, shape.leaf_at(7)));
  EXPECT_TRUE(shape.is_ancestor_or_self(left, shape.leaf_at(0)));
  EXPECT_FALSE(shape.is_ancestor_or_self(left, shape.leaf_at(4)));
  EXPECT_FALSE(shape.is_ancestor_or_self(left, right));
  EXPECT_FALSE(shape.is_ancestor_or_self(shape.leaf_at(0), root));
}

TEST(Shape, ChildTowardWalksCorrectly) {
  const TreeShape shape(8);
  const NodeId root = TreeShape::root();
  NodeId node = root;
  // Walk to leaf 5 step by step; every step must contain leaf 5's subtree.
  const NodeId target = shape.leaf_at(5);
  std::uint32_t steps = 0;
  while (node != target) {
    node = shape.child_toward(node, target);
    ++steps;
    EXPECT_TRUE(shape.is_ancestor_or_self(node, target));
  }
  EXPECT_EQ(steps, shape.depth(target));
}

// SubtreeCursor derives children from a node's leaf count alone; it must
// agree with the shape's records at every node, for odd and even splits.
TEST(Shape, CursorMatchesNodeRecordsEverywhere) {
  std::vector<std::uint32_t> sizes;
  for (std::uint32_t n = 1; n <= 300; ++n) {
    sizes.push_back(n);
  }
  for (std::uint32_t k = 9; k <= 18; ++k) {
    sizes.push_back((1u << k) - 1);
    sizes.push_back(1u << k);
    sizes.push_back((1u << k) + 1);
  }
  for (const std::uint32_t n : sizes) {
    const TreeShape shape(n);
    for (NodeId node = 0; node < shape.num_nodes(); ++node) {
      const SubtreeCursor at = shape.cursor(node);
      ASSERT_EQ(at.node, node);
      ASSERT_EQ(at.leaves, shape.leaf_count(node)) << "n=" << n;
      ASSERT_EQ(at.first_leaf, shape.first_leaf(node)) << "n=" << n;
      ASSERT_EQ(at.is_leaf(), shape.is_leaf(node)) << "n=" << n;
      if (at.is_leaf()) {
        continue;
      }
      for (const SubtreeCursor child : {at.left(), at.right()}) {
        const NodeId expected =
            child.first_leaf == at.first_leaf ? shape.left(node)
                                              : shape.right(node);
        ASSERT_EQ(child.node, expected) << "n=" << n << " node=" << node;
        ASSERT_EQ(child.leaves, shape.leaf_count(expected)) << "n=" << n;
        ASSERT_EQ(child.first_leaf, shape.first_leaf(expected)) << "n=" << n;
      }
      const std::uint32_t last = at.first_leaf + at.leaves - 1;
      ASSERT_EQ(at.child_toward(at.first_leaf).node, shape.left(node));
      ASSERT_EQ(at.child_toward(last).node, shape.right(node));
    }
  }
}

TEST(Shape, PathEndpoints) {
  const TreeShape shape(16);
  const NodeId target = shape.leaf_at(9);
  const auto path = shape.path(TreeShape::root(), target);
  ASSERT_EQ(path.size(), shape.depth(target) + 1);
  EXPECT_EQ(path.front(), TreeShape::root());
  EXPECT_EQ(path.back(), target);
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(shape.parent(path[i]), path[i - 1]);
  }
}

TEST(Shape, PathRejectsNonDescendant) {
  const TreeShape shape(4);
  EXPECT_THROW((void)shape.path(shape.leaf_at(0), shape.leaf_at(1)),
               ContractViolation);
}

TEST(Shape, RejectsZeroLeaves) {
  EXPECT_THROW(TreeShape shape(0), ContractViolation);
}

// ---- LocalTreeView ----------------------------------------------------------

std::shared_ptr<const TreeShape> shape8() { return TreeShape::make(8); }

TEST(View, BatchInsertPutsEveryoneAtRoot) {
  LocalTreeView view(shape8());
  view.insert_all_at_root(std::vector<sim::Label>{5, 1, 9});
  EXPECT_EQ(view.ball_count(), 3u);
  EXPECT_EQ(view.balls_at(TreeShape::root()), 3u);
  EXPECT_EQ(view.current(5), TreeShape::root());
  EXPECT_EQ(view.balls(), (std::vector<sim::Label>{1, 5, 9}));
  view.check_capacity_invariant();
}

TEST(View, DuplicateLabelsRejected) {
  LocalTreeView view(shape8());
  EXPECT_THROW(view.insert_all_at_root(std::vector<sim::Label>{1, 1}),
               ContractViolation);
}

TEST(View, SingleInsertAndRemove) {
  LocalTreeView view(shape8());
  view.insert_at_root(3);
  view.insert_at_root(1);
  EXPECT_THROW(view.insert_at_root(3), ContractViolation);
  EXPECT_EQ(view.ball_count(), 2u);
  view.remove(3);
  EXPECT_FALSE(view.contains(3));
  EXPECT_TRUE(view.contains(1));
  EXPECT_THROW(view.remove(3), ContractViolation);
  EXPECT_THROW((void)view.current(3), ContractViolation);
  view.check_capacity_invariant();
}

TEST(View, RemainingCapacityTracksMoves) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0, 1, 2, 3});
  const NodeId root = TreeShape::root();
  EXPECT_EQ(view.remaining_capacity(root), 4u);
  EXPECT_EQ(view.remaining_capacity(shape->left(root)), 4u);
  view.reposition(0, shape->leaf_at(0));
  EXPECT_EQ(view.remaining_capacity(shape->left(root)), 3u);
  EXPECT_EQ(view.remaining_capacity(shape->leaf_at(0)), 0u);
  EXPECT_EQ(view.remaining_capacity(shape->leaf_at(1)), 1u);
  view.check_capacity_invariant();
}

TEST(View, DescendTowardReachesEmptyLeaf) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0});
  const NodeId got = view.descend_toward(0, shape->leaf_at(5));
  EXPECT_EQ(got, shape->leaf_at(5));
  EXPECT_EQ(view.current(0), got);
  view.check_capacity_invariant();
}

TEST(View, DescendStopsAtFullSubtree) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0, 1});
  // Fill leaf 3, then send ball 1 at it: must stop at the leaf's parent.
  view.reposition(0, shape->leaf_at(3));
  const NodeId got = view.descend_toward(1, shape->leaf_at(3));
  EXPECT_EQ(got, shape->parent(shape->leaf_at(3)));
  view.check_capacity_invariant();
}

TEST(View, DescentOrderImplementsPriorities) {
  // Two balls race for the same leaf; the one processed first wins, the
  // second parks at the deepest node with spare capacity.
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{7, 8});
  EXPECT_EQ(view.descend_toward(7, shape->leaf_at(0)), shape->leaf_at(0));
  const NodeId second = view.descend_toward(8, shape->leaf_at(0));
  EXPECT_EQ(second, shape->parent(shape->leaf_at(0)));
  // The paper's "enough space below to accommodate it": the blocked ball's
  // node still has a free leaf for it (the sibling of the taken leaf). Note
  // the node's remaining capacity reads 0 — the parked ball itself consumes
  // the slack — which is exactly "one slot left, reserved for this ball".
  EXPECT_EQ(view.remaining_capacity(shape->leaf_at(1)), 1u);
  EXPECT_EQ(view.remaining_capacity(second), 0u);
}

TEST(View, DescendRejectsForeignTarget) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0});
  view.reposition(0, shape->left(TreeShape::root()));
  EXPECT_THROW((void)view.descend_toward(0, shape->leaf_at(7)),
               ContractViolation);
}

TEST(View, OrderedBallsFollowsPriorityOrder) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{10, 20, 30, 40});
  view.reposition(40, shape->leaf_at(0));                  // depth 3
  view.reposition(30, shape->left(TreeShape::root()));     // depth 1
  // Depth desc, then label asc: 40 (3), 30 (1), 10 and 20 (0).
  const std::span<const sim::Label> order = view.ordered_balls();
  EXPECT_EQ(std::vector<sim::Label>(order.begin(), order.end()),
            (std::vector<sim::Label>{40, 30, 10, 20}));
  // Tombstoned slots must vanish from the order, not surface as stale
  // labels from the reused scratch.
  view.remove(30);
  const std::span<const sim::Label> after = view.ordered_balls();
  EXPECT_EQ(std::vector<sim::Label>(after.begin(), after.end()),
            (std::vector<sim::Label>{40, 10, 20}));
}

TEST(View, AllAtLeaves) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0, 1});
  EXPECT_FALSE(view.all_at_leaves());
  view.reposition(0, shape->leaf_at(0));
  EXPECT_FALSE(view.all_at_leaves());
  view.reposition(1, shape->leaf_at(5));
  EXPECT_TRUE(view.all_at_leaves());
}

TEST(View, StatsBmaxAndPathLoad) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0, 1, 2, 3, 4});
  EXPECT_EQ(view.max_balls_at_node(), 5u);
  EXPECT_EQ(view.max_inner_path_load(), 5u);
  view.reposition(0, shape->left(TreeShape::root()));
  view.reposition(1, shape->left(TreeShape::root()));
  // Root has 3, left inner has 2: the left paths carry 5, right paths 3.
  EXPECT_EQ(view.max_balls_at_node(), 3u);
  EXPECT_EQ(view.max_inner_path_load(), 5u);
  view.reposition(0, shape->leaf_at(0));
  view.reposition(1, shape->leaf_at(1));
  view.reposition(2, shape->leaf_at(2));
  view.reposition(3, shape->leaf_at(3));
  view.reposition(4, shape->leaf_at(4));
  EXPECT_EQ(view.balls_on_inner_nodes(), 0u);
  EXPECT_EQ(view.max_inner_path_load(), 0u);
}

TEST(View, FindBallAt) {
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{4, 2});
  view.reposition(4, shape->leaf_at(1));
  EXPECT_EQ(view.find_ball_at(shape->leaf_at(1)), std::optional<sim::Label>(4));
  EXPECT_EQ(view.find_ball_at(shape->leaf_at(2)), std::nullopt);
  EXPECT_EQ(view.find_ball_at(TreeShape::root()),
            std::optional<sim::Label>(2));
}

TEST(View, CapacitySaturatesInsteadOfUnderflowing) {
  // Force a transient overfull leaf via repositioning (what stale crashed
  // entries do in divergent views); capacity must read 0, not wrap.
  auto shape = shape8();
  LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0, 1});
  view.reposition(0, shape->leaf_at(0));
  view.reposition(1, shape->leaf_at(0));
  EXPECT_EQ(view.remaining_capacity(shape->leaf_at(0)), 0u);
  EXPECT_EQ(view.balls_in_subtree(shape->leaf_at(0)), 2u);
  // Strict Lemma-1 check must flag it; the consistency-only check must not.
  EXPECT_THROW(view.check_capacity_invariant(true), ContractViolation);
  EXPECT_NO_THROW(view.check_capacity_invariant(false));
}

TEST(View, CountsStayConsistentUnderChurn) {
  auto shape = TreeShape::make(16);
  LocalTreeView view(shape);
  std::vector<sim::Label> labels;
  for (sim::Label l = 0; l < 16; ++l) {
    labels.push_back(l);
  }
  view.insert_all_at_root(labels);
  // Exercise a mix of descents, repositions, and removals.
  for (sim::Label l = 0; l < 16; ++l) {
    view.descend_toward(l, shape->leaf_at(static_cast<std::uint32_t>(l)));
  }
  EXPECT_TRUE(view.all_at_leaves());
  for (sim::Label l = 0; l < 8; ++l) {
    view.remove(l);
  }
  EXPECT_EQ(view.ball_count(), 8u);
  for (sim::Label l = 8; l < 16; ++l) {
    view.reposition(l, TreeShape::root());
  }
  EXPECT_EQ(view.balls_at(TreeShape::root()), 8u);
  view.check_capacity_invariant();
}

TEST(View, SingleLeafTreeHoldsOneBall) {
  LocalTreeView view(TreeShape::make(1));
  view.insert_all_at_root(std::vector<sim::Label>{42});
  EXPECT_TRUE(view.all_at_leaves());  // root is the leaf
  EXPECT_EQ(view.remaining_capacity(TreeShape::root()), 0u);
}

}  // namespace
}  // namespace bil::tree
