#include "tree/local_view.h"

#include <algorithm>

#include "util/contract.h"

namespace bil::tree {

namespace {

/// Index of the first element in data[0..n) not less than `value` —
/// std::lower_bound's contract over a flat array, but with a branchless
/// inner loop (the halving step conditionally advances the base pointer;
/// compilers emit a conditional move, not a branch). slow_index_of runs
/// this once per registry lookup in every *gapped* view — the label set of
/// every view that missed an init-round crash victim's broadcast, i.e.
/// Θ(n²) lookups per round for the rest of an adversarial run — where a
/// mispredicting branchy search is pure overhead on top of the arithmetic
/// slot math.
[[nodiscard]] std::size_t lower_bound_index(const Label* data, std::size_t n,
                                            Label value) {
  const Label* base = data;
  while (n > 1) {
    const std::size_t half = n / 2;
    base += (base[half - 1] < value) ? half : 0;
    n -= half;
  }
  const std::size_t below = (n == 1 && *base < value) ? 1 : 0;
  return static_cast<std::size_t>(base - data) + below;
}

}  // namespace

LocalTreeView::LocalTreeView(std::shared_ptr<const TreeShape> shape)
    : shape_(std::move(shape)) {
  BIL_REQUIRE(shape_ != nullptr, "LocalTreeView needs a shape");
  subtree_count_.assign(shape_->num_nodes(), 0);
}

std::size_t LocalTreeView::slow_index_of(Label ball) const {
  // Unit-stride labels with gaps: a view that missed an init-round victim's
  // broadcast holds 0..n-1 minus a few crashed labels — the shape every
  // adversarial run produces, and it lasts for the whole run. The slot is
  // the arithmetic offset minus the number of gaps below `ball`, verified
  // against the registry (so a gap label itself fails the check and throws).
  if (dense_stride_ == 1 && !gaps_.empty()) {
    if (ball >= dense_base_) {
      const Label offset = ball - dense_base_;
      if (offset < labels_.size() + gaps_.size()) {
        const std::size_t gaps_below =
            lower_bound_index(gaps_.data(), gaps_.size(), ball);
        const auto slot = static_cast<std::size_t>(offset) - gaps_below;
        if (slot < labels_.size() && labels_[slot] == ball) {
          return slot;
        }
      }
    }
    BIL_REQUIRE(false, "ball " + std::to_string(ball) + " is not registered");
  }
  // General arithmetic label sets (stride > 1) resolve in O(1); unit-stride
  // gapless labels only reach here to fail (the inlined fast path already
  // covered the hits).
  if (dense_stride_ != 0) {
    if (ball >= dense_base_) {
      const Label offset = ball - dense_base_;
      if (offset % dense_stride_ == 0) {
        const Label slot = offset / dense_stride_;
        if (slot < labels_.size()) {
          return static_cast<std::size_t>(slot);
        }
      }
    }
    BIL_REQUIRE(false, "ball " + std::to_string(ball) + " is not registered");
  }
  const std::size_t slot =
      lower_bound_index(labels_.data(), labels_.size(), ball);
  BIL_REQUIRE(slot < labels_.size() && labels_[slot] == ball,
              "ball " + std::to_string(ball) + " is not registered");
  return slot;
}

void LocalTreeView::recompute_density() {
  // labels_ is sorted and distinct; detect a constant stride — or unit
  // stride with a bounded number of holes — so index_of can use arithmetic
  // instead of binary search. Differences are compared pairwise, so no
  // overflow-prone base + slot·stride is ever formed.
  dense_stride_ = 0;
  dense_base_ = labels_.empty() ? 0 : labels_[0];
  gaps_.clear();
  if (labels_.size() <= 1) {
    dense_stride_ = 1;
    return;
  }
  const Label stride = labels_[1] - labels_[0];
  std::size_t first_break = labels_.size();
  for (std::size_t slot = 2; slot < labels_.size(); ++slot) {
    if (labels_[slot] - labels_[slot - 1] != stride) {
      first_break = slot;
      break;
    }
  }
  if (first_break == labels_.size()) {
    dense_stride_ = stride;
    return;
  }
  // Not an arithmetic sequence. Try unit stride with holes (bounded so a
  // genuinely sparse namespace cannot blow up the gap list; each hole costs
  // one extra lower_bound step over at most kMaxGaps entries).
  constexpr std::size_t kMaxGaps = 4096;
  const Label span_end = labels_.back();
  if (span_end - dense_base_ + 1 - labels_.size() > kMaxGaps) {
    return;  // irregular labels: index_of falls back to binary search
  }
  for (std::size_t slot = 1; slot < labels_.size(); ++slot) {
    for (Label missing = labels_[slot - 1] + 1; missing < labels_[slot];
         ++missing) {
      gaps_.push_back(missing);
    }
  }
  dense_stride_ = 1;
}

void LocalTreeView::add_contribution(NodeId node, std::int32_t delta) {
  // A ball at `node` is counted in every subtree containing it: walk up to
  // the root adjusting counts.
  for (NodeId v = node; v != kNoNode; v = shape_->parent(v)) {
    if (delta > 0) {
      subtree_count_[v] += static_cast<std::uint32_t>(delta);
    } else {
      BIL_ENSURE(subtree_count_[v] > 0, "subtree count underflow");
      subtree_count_[v] -= static_cast<std::uint32_t>(-delta);
    }
  }
}

void LocalTreeView::insert_all_at_root(std::span<const Label> balls) {
  labels_.assign(balls.begin(), balls.end());
  std::sort(labels_.begin(), labels_.end());
  BIL_REQUIRE(std::adjacent_find(labels_.begin(), labels_.end()) ==
                  labels_.end(),
              "ball labels must be distinct");
  node_of_.assign(labels_.size(), TreeShape::root());
  subtree_count_.assign(shape_->num_nodes(), 0);
  subtree_count_[TreeShape::root()] =
      static_cast<std::uint32_t>(labels_.size());
  alive_count_ = static_cast<std::uint32_t>(labels_.size());
  recompute_density();
}

void LocalTreeView::insert_at_root(Label ball) {
  const auto it = std::lower_bound(labels_.begin(), labels_.end(), ball);
  BIL_REQUIRE(it == labels_.end() || *it != ball,
              "ball " + std::to_string(ball) + " already registered");
  const auto slot = it - labels_.begin();
  labels_.insert(it, ball);
  node_of_.insert(node_of_.begin() + slot, TreeShape::root());
  add_contribution(TreeShape::root(), +1);
  ++alive_count_;
  recompute_density();
}

void LocalTreeView::remove(Label ball) {
  const std::size_t slot = index_of(ball);
  BIL_REQUIRE(node_of_[slot] != kNoNode,
              "ball " + std::to_string(ball) + " already removed");
  add_contribution(node_of_[slot], -1);
  node_of_[slot] = kNoNode;
  --alive_count_;
}

bool LocalTreeView::slow_contains(Label ball) const {
  const auto it = std::lower_bound(labels_.begin(), labels_.end(), ball);
  return it != labels_.end() && *it == ball &&
         node_of_[static_cast<std::size_t>(it - labels_.begin())] != kNoNode;
}

std::vector<Label> LocalTreeView::balls() const {
  std::vector<Label> alive;
  alive.reserve(alive_count_);
  for (std::size_t slot = 0; slot < labels_.size(); ++slot) {
    if (node_of_[slot] != kNoNode) {
      alive.push_back(labels_[slot]);
    }
  }
  return alive;
}

std::uint32_t LocalTreeView::balls_at(NodeId node) const {
  std::uint32_t below = 0;
  if (!shape_->is_leaf(node)) {
    below = subtree_count_.at(shape_->left(node)) +
            subtree_count_.at(shape_->right(node));
  }
  return subtree_count_.at(node) - below;
}

NodeId LocalTreeView::descend_toward(Label ball, NodeId target) {
  const std::size_t slot = index_of(ball);
  BIL_REQUIRE(node_of_[slot] != kNoNode, "cannot move a removed ball");
  const NodeId start = node_of_[slot];
  if (start == target) {
    return start;  // a trivial path (every ball on a leaf has one)
  }
  BIL_REQUIRE(shape_->is_ancestor_or_self(start, target),
              "descent target must lie in the ball's current subtree");
  // Advance into each next subtree only while it can still absorb one more
  // ball; the counts are updated step by step so that balls processed later
  // in <R order observe this ball's placement. The cursor walks toward the
  // target's leftmost leaf, whose root path runs through the target.
  const NodeId stop = clipped_descent(
      shape_->cursor(start), target, shape_->first_leaf(target),
      [this](NodeId next) { return subtree_count_.at(next); },
      [this](NodeId next) { ++subtree_count_[next]; });
  node_of_[slot] = stop;
  return stop;
}

std::optional<Label> LocalTreeView::find_ball_at(NodeId node) const {
  for (std::size_t slot = 0; slot < labels_.size(); ++slot) {
    if (node_of_[slot] == node) {
      return labels_[slot];
    }
  }
  return std::nullopt;
}

void LocalTreeView::reposition(Label ball, NodeId node) {
  BIL_REQUIRE(node < shape_->num_nodes(), "reposition target out of range");
  const std::size_t slot = index_of(ball);
  BIL_REQUIRE(node_of_[slot] != kNoNode, "cannot reposition a removed ball");
  if (node_of_[slot] == node) {
    return;
  }
  add_contribution(node_of_[slot], -1);
  add_contribution(node, +1);
  node_of_[slot] = node;
}

std::span<const Label> LocalTreeView::ordered_balls() const {
  // Definition 1 (<R): deeper balls first; ties by smaller label. Depths
  // are bounded by the tree height, and iterating slots in ascending label
  // order keeps each depth bucket label-sorted — a two-pass counting sort
  // (O(n + height)) yields exactly the order a comparison sort would, and
  // this runs twice per recipient per round, so both passes sweep the flat
  // parallel slot arrays uniformly with no per-call allocation: tombstoned
  // slots sort under a discard key past every real depth (landing in the
  // trailing region the returned span excludes) instead of branching the
  // loop on liveness. Sort key is height − depth so "deeper first" is an
  // ascending counting sort.
  const std::uint32_t height = shape_->height();
  const std::uint32_t dead_key = height + 1;
  order_bucket_scratch_.assign(height + 2, 0);
  std::uint32_t* const buckets = order_bucket_scratch_.data();
  const std::size_t slots = labels_.size();
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const NodeId node = node_of_[slot];
    ++buckets[node == kNoNode ? dead_key : height - shape_->depth(node)];
  }
  std::uint32_t offset = 0;
  for (std::uint32_t key = 0; key <= dead_key; ++key) {
    const std::uint32_t count = buckets[key];
    buckets[key] = offset;
    offset += count;
  }
  order_scratch_.resize(slots);
  Label* const order = order_scratch_.data();
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const NodeId node = node_of_[slot];
    order[buckets[node == kNoNode ? dead_key : height - shape_->depth(node)]++] =
        labels_[slot];
  }
  return {order, alive_count_};
}

bool LocalTreeView::all_at_leaves() const {
  for (std::size_t slot = 0; slot < labels_.size(); ++slot) {
    if (node_of_[slot] != kNoNode && !shape_->is_leaf(node_of_[slot])) {
      return false;
    }
  }
  return true;
}

std::uint32_t LocalTreeView::max_balls_at_node() const {
  std::uint32_t best = 0;
  for (NodeId node = 0; node < shape_->num_nodes(); ++node) {
    best = std::max(best, balls_at(node));
  }
  return best;
}

std::uint32_t LocalTreeView::max_inner_path_load() const {
  // DFS accumulating the number of balls at inner nodes from the root;
  // record the running sum at every leaf.
  struct Frame {
    NodeId node;
    std::uint32_t load_above;
  };
  std::uint32_t best = 0;
  std::vector<Frame> stack{{TreeShape::root(), 0}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (shape_->is_leaf(frame.node)) {
      best = std::max(best, frame.load_above);
      continue;
    }
    const std::uint32_t load = frame.load_above + balls_at(frame.node);
    stack.push_back(Frame{shape_->left(frame.node), load});
    stack.push_back(Frame{shape_->right(frame.node), load});
  }
  return best;
}

std::uint32_t LocalTreeView::balls_on_inner_nodes() const {
  std::uint32_t count = 0;
  for (std::size_t slot = 0; slot < labels_.size(); ++slot) {
    if (node_of_[slot] != kNoNode && !shape_->is_leaf(node_of_[slot])) {
      ++count;
    }
  }
  return count;
}

void LocalTreeView::check_capacity_invariant(bool strict) const {
  std::uint64_t at_nodes_total = 0;
  for (NodeId node = 0; node < shape_->num_nodes(); ++node) {
    if (strict) {
      BIL_ENSURE(subtree_count_[node] <= shape_->leaf_count(node),
                 "Lemma 1 violated at node " + std::to_string(node));
    }
    if (!shape_->is_leaf(node)) {
      BIL_ENSURE(subtree_count_[node] >=
                     subtree_count_[shape_->left(node)] +
                         subtree_count_[shape_->right(node)],
                 "subtree counts inconsistent at node " + std::to_string(node));
    }
    at_nodes_total += balls_at(node);
  }
  BIL_ENSURE(at_nodes_total == alive_count_,
             "ball registry and subtree counts disagree");
  BIL_ENSURE(subtree_count_[TreeShape::root()] == alive_count_,
             "root count must equal the number of alive balls");
}

}  // namespace bil::tree
