#include "core/delivery_classes.h"

#include <algorithm>
#include <array>

#include "util/contract.h"

namespace bil::core {

namespace {

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
constexpr std::uint32_t kVictim = 1u << 31;
constexpr std::uint32_t kPlus = 1;
constexpr std::uint32_t kMinus = static_cast<std::uint32_t>(-1);
/// Non-base classes one base pass carries. Each costs 5 bytes per node;
/// a round with more classes reruns the base pass once per batch.
constexpr std::size_t kOverlaysPerPass = 8;

}  // namespace

void DeliveryClassMover::move(
    tree::LocalTreeView& view, std::span<const tree::NodeId> targets,
    std::span<const sim::ProcessId> alive,
    std::span<const sim::ProcessId> victims,
    std::span<const std::vector<sim::ProcessId>> recipients) {
  BIL_REQUIRE(victims.size() == recipients.size(),
              "one recipient list per victim");
  BIL_REQUIRE(view.shape().num_leaves() == n_,
              "the view's tree must have one leaf per ball");
  shape_ = &view.shape();
  if (key_.empty()) {
    key_.assign(n_, kNone);
  }
  partition(alive, victims, recipients);
  const auto classes = static_cast<std::uint32_t>(size_.size());
  const auto base = static_cast<std::uint32_t>(
      std::max_element(size_.begin(), size_.end()) - size_.begin());

  // The <R order is a function of the phase-start view, so every pass
  // shares it; the span survives the movement below (see ordered_balls).
  const std::span<const sim::Label> order = view.ordered_balls();
  const std::uint32_t others = classes - 1;
  if (others > kOverlaysPerPass) {
    start_ = view;
  }
  for (std::uint32_t begin = 0; begin == 0 || begin < others;
       begin += kOverlaysPerPass) {
    const bool first = begin == 0;
    const std::size_t count =
        std::min<std::size_t>(kOverlaysPerPass, others - begin);
    for (std::size_t g = 0; g < count; ++g) {
      if (g == overlays_.size()) {
        Overlay& fresh = overlays_.emplace_back();
        fresh.delta.assign(shape_->num_nodes(), 0);
        fresh.dirty.assign(shape_->num_nodes(), 0);
      }
      const auto other = static_cast<std::uint32_t>(begin + g);
      overlays_[g].cls = other < base ? other : other + 1;
    }
    const std::span<Overlay> batch(overlays_.data(), count);
    // The first pass moves the base class on the view itself; later passes
    // replay it on a copy of the phase-start view for their overlays.
    if (!first) {
      scratch_ = *start_;
    }
    run_pass(first ? view : *scratch_, order, targets, batch, base);
    if (first) {
      for (std::uint32_t v = 0; v < victims_; ++v) {
        if (receives(base, v)) {
          view.remove(victims[v]);
        }
      }
    }
    for (Overlay& overlay : batch) {
      for (const auto& [id, node] : overlay.moved) {
        view.reposition(id, node);
      }
      for (const tree::NodeId node : overlay.touched) {
        overlay.delta[node] = 0;
        overlay.dirty[node] = 0;
      }
      overlay.touched.clear();
      overlay.moved.clear();
    }
  }
  for (const sim::ProcessId id : alive) {
    key_[id] = kNone;
  }
}

void DeliveryClassMover::partition(
    std::span<const sim::ProcessId> alive,
    std::span<const sim::ProcessId> victims,
    std::span<const std::vector<sim::ProcessId>> recipients) {
  // Partition refinement: start with one class that received nothing, and
  // split every class that victim v reached only in part. Recipients that
  // are not survivors (halted, crashed, or victims themselves) carry no key
  // below kVictim and are skipped.
  victims_ = static_cast<std::uint32_t>(victims.size());
  for (const sim::ProcessId id : alive) {
    key_[id] = 0;
  }
  for (std::uint32_t v = 0; v < victims_; ++v) {
    key_[victims[v]] = kVictim | v;
  }
  size_.assign(1, static_cast<std::uint32_t>(alive.size() - victims.size()));
  receives_.assign(victims_, 0);
  for (std::uint32_t v = 0; v < victims_; ++v) {
    const auto classes = static_cast<std::uint32_t>(size_.size());
    hits_.assign(classes, 0);
    for (const sim::ProcessId recipient : recipients[v]) {
      BIL_REQUIRE(recipient < n_, "crash delivery recipient out of range");
      if (key_[recipient] < kVictim) {
        ++hits_[key_[recipient]];
      }
    }
    split_.assign(classes, kNone);
    bool any_split = false;
    for (std::uint32_t cls = 0; cls < classes; ++cls) {
      BIL_REQUIRE(hits_[cls] <= size_[cls], "recipients must be distinct");
      if (hits_[cls] == 0) {
        continue;
      }
      if (hits_[cls] == size_[cls]) {
        receives_[static_cast<std::size_t>(cls) * victims_ + v] = 1;
        continue;
      }
      const auto split = static_cast<std::uint32_t>(size_.size());
      split_[cls] = split;
      size_.push_back(hits_[cls]);
      size_[cls] -= hits_[cls];
      receives_.resize(static_cast<std::size_t>(split + 1) * victims_);
      std::copy_n(receives_.begin() + static_cast<std::ptrdiff_t>(cls) *
                                          victims_,
                  victims_,
                  receives_.begin() + static_cast<std::ptrdiff_t>(split) *
                                          victims_);
      receives_[static_cast<std::size_t>(split) * victims_ + v] = 1;
      any_split = true;
    }
    if (!any_split) {
      continue;
    }
    for (const sim::ProcessId recipient : recipients[v]) {
      const std::uint32_t key = key_[recipient];
      if (key < classes && split_[key] != kNone) {
        key_[recipient] = split_[key];
      }
    }
  }
}

void DeliveryClassMover::run_pass(tree::LocalTreeView& pass,
                                  std::span<const sim::Label> order,
                                  std::span<const tree::NodeId> targets,
                                  std::span<Overlay> overlays,
                                  std::uint32_t base) {
  const tree::TreeShape& shape = *shape_;
  // A class's outcome for the current ball; kNoNode: not re-simulated (the
  // base's outcome holds) or, for a victim, removed.
  std::array<tree::NodeId, kOverlaysPerPass> outcome{};
  const auto class_descent = [&](const Overlay& overlay, tree::NodeId start,
                                 tree::NodeId target) {
    // base + delta wraps mod 2^32 to the class's (non-negative) count.
    return tree::clipped_descent(
        shape.cursor(start), target, shape.first_leaf(target),
        [&](tree::NodeId node) {
          return pass.balls_in_subtree(node) + overlay.delta[node];
        },
        [](tree::NodeId) {});
  };
  bool clean = true;  // no class differs from the base yet
  for (const sim::Label label : order) {
    const auto id = static_cast<sim::ProcessId>(label);
    const std::uint32_t key = key_[id];
    const tree::NodeId target = targets[id];
    if (key >= kVictim) {
      // A victim: each class moves it or removes it at this turn.
      const std::uint32_t v = key & ~kVictim;
      const tree::NodeId start = pass.current(label);
      for (std::size_t g = 0; g < overlays.size(); ++g) {
        outcome[g] = receives(overlays[g].cls, v)
                         ? class_descent(overlays[g], start, target)
                         : tree::kNoNode;
      }
      if (receives(base, v)) {
        const tree::NodeId stop = pass.descend_toward(label, target);
        for (std::size_t g = 0; g < overlays.size(); ++g) {
          if (outcome[g] == tree::kNoNode) {
            add_path(overlays[g], tree::kNoNode, stop, kMinus);
          } else if (outcome[g] != stop) {
            add_path(overlays[g], start, outcome[g], kPlus);
            add_path(overlays[g], start, stop, kMinus);
          }
        }
      } else {
        pass.remove(label);
        for (std::size_t g = 0; g < overlays.size(); ++g) {
          if (outcome[g] != tree::kNoNode) {
            add_path(overlays[g], tree::kNoNode, outcome[g], kPlus);
          }
        }
      }
      clean = std::all_of(overlays.begin(), overlays.end(),
                          [](const Overlay& o) { return o.touched.empty(); });
      continue;
    }
    if (clean) {
      (void)pass.descend_toward(label, target);
      continue;
    }
    const tree::NodeId start = pass.current(label);
    if (start == target) {
      continue;  // a trivial path reads no counts
    }
    const tree::NodeId first =
        shape.cursor(start).child_toward(shape.first_leaf(target)).node;
    bool any = false;
    for (std::size_t g = 0; g < overlays.size(); ++g) {
      outcome[g] = overlays[g].dirty[first] != 0
                       ? class_descent(overlays[g], start, target)
                       : tree::kNoNode;
      any = any || outcome[g] != tree::kNoNode;
    }
    const tree::NodeId stop = pass.descend_toward(label, target);
    if (!any) {
      continue;
    }
    for (std::size_t g = 0; g < overlays.size(); ++g) {
      if (outcome[g] == tree::kNoNode || outcome[g] == stop) {
        continue;
      }
      add_path(overlays[g], start, outcome[g], kPlus);
      add_path(overlays[g], start, stop, kMinus);
      if (key == overlays[g].cls) {
        overlays[g].moved.emplace_back(id, outcome[g]);
      }
    }
  }
}

void DeliveryClassMover::add_path(Overlay& overlay, tree::NodeId top,
                                  tree::NodeId node, std::uint32_t sign) const {
  if (node == top) {
    return;
  }
  for (tree::NodeId at = node; at != top; at = shape_->parent(at)) {
    overlay.delta[at] += sign;
  }
  // Dirtiness is upward closed, so the climb stops at the first dirty node.
  for (tree::NodeId at = node; at != tree::kNoNode && overlay.dirty[at] == 0;
       at = shape_->parent(at)) {
    overlay.dirty[at] = 1;
    overlay.touched.push_back(at);
  }
}

}  // namespace bil::core
