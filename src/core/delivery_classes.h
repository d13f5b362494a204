// One path round's movement under crash-subset delivery, computed as deltas.
//
// A victim crashed during a path round reaches only part of the alive balls
// with its candidate path. That partitions the survivors into *delivery
// classes*: two balls share a class iff they received the same victims'
// paths. Every class runs Algorithm 1's <R movement pass over the same
// phase-start view and the same candidate targets; at a victim's turn a
// class that received its path moves it, and a class that did not removes
// it (core/fast_sim_crash.h, divergence model item 1). Each survivor's
// outcome is its own class's.
//
// Classes therefore differ only from the first victim they treat
// differently, and only through subtree counts. So one *base* class (the
// largest) moves in place on the view, and every other class rides along
// as a count overlay on it: delta[x] = class count − base count at node x.
// At each ball's <R turn a class re-simulates the ball's descent against
// base + delta, but only if the first node the descent reads (the child of
// its start toward its target) has a *dirty* subtree: one holding a node
// whose delta was ever nonzero this round. Otherwise every count the
// descent reads equals the base's, and so does its outcome. An outcome that
// differs from the base's adds its two paths to the delta and marks them
// dirty up to the root; dirtiness only grows, so one flag read per class
// per ball decides. Folding writes back only the members whose outcome
// differs from the base's.
//
// tests/delivery_classes_test.cpp checks the result against a full pass per
// class over every subset policy and path policy.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "sim/types.h"
#include "tree/local_view.h"

namespace bil::core {

class DeliveryClassMover {
 public:
  explicit DeliveryClassMover(std::uint32_t n) : n_(n) {}

  /// Runs one path round's movement and folds it into `view`, whose labels
  /// are process ids 0..n−1. On entry `view` holds every ball of `alive` at
  /// its phase-start position; `victims` (distinct, all in `alive`) crashed
  /// this round, and `recipients[v]` lists the distinct ids that received
  /// victim v's path (ids that are not survivors are ignored). `targets`
  /// holds each alive ball's candidate target. On return every survivor
  /// sits at its own class's outcome and the victims are gone.
  void move(tree::LocalTreeView& view, std::span<const tree::NodeId> targets,
            std::span<const sim::ProcessId> alive,
            std::span<const sim::ProcessId> victims,
            std::span<const std::vector<sim::ProcessId>> recipients);

 private:
  /// One non-base class carried on the base pass.
  struct Overlay {
    std::uint32_t cls = 0;
    /// Class count − base count per node (mod 2^32).
    std::vector<std::uint32_t> delta;
    /// Upward closed: set iff the node's subtree holds a delta ever nonzero.
    std::vector<std::uint8_t> dirty;
    /// The dirty nodes, for the reset.
    std::vector<tree::NodeId> touched;
    /// This class's members whose outcome differs from the base's.
    std::vector<std::pair<sim::ProcessId, tree::NodeId>> moved;
  };

  void partition(std::span<const sim::ProcessId> alive,
                 std::span<const sim::ProcessId> victims,
                 std::span<const std::vector<sim::ProcessId>> recipients);
  void run_pass(tree::LocalTreeView& pass, std::span<const sim::Label> order,
                std::span<const tree::NodeId> targets,
                std::span<Overlay> overlays, std::uint32_t base);
  [[nodiscard]] bool receives(std::uint32_t cls, std::uint32_t victim) const {
    return receives_[static_cast<std::size_t>(cls) * victims_ + victim] != 0;
  }
  /// Adds `sign` to the delta on the path (top, node] — top = kNoNode takes
  /// the whole root path — and marks it dirty up to the root.
  void add_path(Overlay& overlay, tree::NodeId top, tree::NodeId node,
                std::uint32_t sign) const;

  std::uint32_t n_;
  const tree::TreeShape* shape_ = nullptr;
  /// Per ball: its class id, kVictim | its victim index, or kNone. kNone
  /// for every ball outside move().
  std::vector<std::uint32_t> key_;
  /// Members per class.
  std::vector<std::uint32_t> size_;
  /// receives_[cls * victims_ + v] != 0 iff class cls received victim v.
  std::vector<std::uint8_t> receives_;
  std::uint32_t victims_ = 0;
  std::vector<std::uint32_t> hits_;
  std::vector<std::uint32_t> split_;
  std::vector<Overlay> overlays_;
  /// Phase-start view and a scratch copy, for rounds with more classes
  /// than one pass carries.
  std::optional<tree::LocalTreeView> start_;
  std::optional<tree::LocalTreeView> scratch_;
};

}  // namespace bil::core
