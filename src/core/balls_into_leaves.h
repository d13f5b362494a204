// The Balls-into-Leaves process — Algorithm 1 of the paper, plus the §6
// early-terminating extension and the "terminate as soon as it reaches a
// leaf" option the paper sketches after Algorithm 1.
//
// Round structure (engine rounds):
//   round 0                init:  broadcast ⟨b_i⟩, build the local tree
//                          with every received ball at the root (line 1).
//   round 2φ-1 (φ >= 1)    phase φ, round 1: pick a candidate path from the
//                          current node (lines 3–10), broadcast it
//                          (line 11), then simulate every received ball's
//                          capacity-clipped descent in <R order, removing
//                          silent balls at their turn (lines 12–20).
//   round 2φ   (φ >= 1)    phase φ, round 2: broadcast the current position
//                          (line 22), apply every received position, remove
//                          silent balls (lines 23–28), and terminate when
//                          every ball in the view sits at a leaf (line 29).
//
// Why the <R iteration order is load-bearing: a ball that crashed in an
// earlier round can survive as a *stale* entry in some views but not
// others. A stale entry at node μ inflates only the subtree counts of μ's
// ancestors, so it can only influence balls whose movement crosses an
// ancestor of μ — and every such ball sits at depth <= depth(μ) and is
// therefore iterated *after* μ's occupant in <R order (deeper first). Since
// the stale ball is silent, it is removed exactly at its turn — before it
// can deflect anyone it could possibly block. Hence all views simulate
// identical movements for correct balls, which is the synchrony fact
// (Proposition 1) behind uniqueness (Theorem 1).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/observer.h"
#include "core/policy.h"
#include "sim/process.h"
#include "sim/types.h"
#include "tree/local_view.h"
#include "tree/shape.h"
#include "util/rng.h"

namespace bil::core {

/// When a ball decides and leaves the protocol.
enum class TerminationMode : std::uint8_t {
  /// Algorithm 1 verbatim: a ball decides and halts once *all* balls in its
  /// view are at leaves. Simple, and silence-removal needs no special cases.
  kGlobal,
  /// Early decision (the paper's sketch after Algorithm 1): a ball decides
  /// its name the moment it has reached a leaf and announced it — its name
  /// is final and usable from that round on — but it keeps rebroadcasting
  /// its (now fixed) position and halts under the global rule.
  ///
  /// Why it must not halt at leaf arrival: a ball that crashes *while
  /// announcing its leaf* plants a permanent "phantom" occupant in exactly
  /// the views that received the announcement. If silent leaf balls were
  /// then exempt from removal (they would have to be — a halted ball is
  /// silent), a live ball parked at an inner node whose subtree's leaves
  /// are, in its view, exhausted by such phantoms could never escape:
  /// candidate paths start at the current node, phantoms never speak again,
  /// and the balls whose views know the truth have no reason to touch those
  /// leaves. The run livelocks (observed under an oblivious adversary at
  /// n = 256 during development — see tests/adversary_test.cpp). Purging
  /// phantoms requires the ball to keep answering, hence global halting.
  kEagerLeaf,
};

[[nodiscard]] const char* to_string(TerminationMode mode) noexcept;

/// ABLATION knob: the order in which received candidate paths / positions
/// are applied to the local view.
enum class MovementOrder : std::uint8_t {
  /// Definition 1's <R: deeper balls first, ties by label. This order is
  /// load-bearing for safety (see the class comment): stale crashed entries
  /// are purged before they can deflect any ball they could block, so all
  /// views simulate identical movements for correct balls.
  kDepthThenLabel,
  /// Plain label order — what a naive implementation might do. UNSOUND
  /// under crashes: a stale entry at a shallow node is processed after
  /// deeper correct balls in some views only, views diverge, and two
  /// correct balls can decide the same leaf. bench_ablation demonstrates
  /// observable uniqueness violations with this setting; it exists only to
  /// show that the paper's priority order is necessary, not stylistic.
  kLabelOnly,
};

/// One renaming participant.
class BallsIntoLeavesProcess final : public sim::ProcessBase {
 public:
  struct Options {
    /// Size of the target namespace (= number of tree leaves). For tight
    /// renaming this equals the number of processes.
    std::uint32_t num_names = 0;
    /// This ball's label (original id from the unbounded namespace).
    sim::Label label = 0;
    /// Seed for this ball's coin flips.
    std::uint64_t seed = 0;
    PathPolicy policy = PathPolicy::kRandomWeighted;
    TerminationMode termination = TerminationMode::kGlobal;
    /// Leave at kDepthThenLabel except when reproducing the ablation.
    MovementOrder movement_order = MovementOrder::kDepthThenLabel;
    /// Shared tree shape; built locally when null.
    std::shared_ptr<const tree::TreeShape> shape;
    /// Optional phase-boundary instrumentation; not owned, may be null.
    PhaseObserver* observer = nullptr;
    /// Byzantine tolerance: validate instead of trust. When set, the process
    /// (a) binds each sender id to the one label it announced at init and
    /// drops — suspecting the sender — any later message that speaks for a
    /// different label (Envelope::from is engine-authenticated, so the
    /// binding defeats impersonation and phantom balls), (b) repairs a
    /// diverged path anchor to the sender's self-claim instead of asserting
    /// view synchrony (Byzantine lies legitimately desynchronize views),
    /// (c) treats out-of-range or out-of-subtree claims as lies (suspect +
    /// silence) instead of harness bugs, and (d) evicts all but the
    /// lowest-label ball from any multiply-claimed leaf after each position
    /// round, so honest names stay unique even when equivocation makes
    /// honest balls collide, and (e) restarts at the root any ball stranded
    /// at an inner node whose subtree's leaves have all filled up (a
    /// livelock only divergent capacity estimates can manufacture). When false (the default) none of these paths
    /// execute and behavior is bit-identical to the crash-only protocol —
    /// the tolerance layer provably costs nothing when nobody lies.
    bool tolerate_byzantine = false;
  };

  explicit BallsIntoLeavesProcess(Options options);

  void on_send(sim::RoundNumber round, sim::Outbox& out) override;
  void on_receive(sim::RoundNumber round,
                  std::span<const sim::Envelope> inbox) override;
  /// Timeout-based early termination under the asynchronous executor
  /// (sim/scheduler.h, DelaySpec::timeout): if this ball already sits at a
  /// leaf when the round's inbox is late, its name is final by the same
  /// argument as TerminationMode::kEagerLeaf — once at a leaf a ball never
  /// moves and no peer can displace it (Theorem 1) — so it decides now
  /// instead of waiting out the delay, and keeps participating until the
  /// global halt condition. Sound only because the asynchronous path is
  /// crash- and Byzantine-free (no evictions can revoke a leaf).
  void on_timeout(sim::RoundNumber round) override;

  // -- Introspection (tests, adversaries, instrumentation) -----------------

  [[nodiscard]] sim::Label label() const noexcept { return options_.label; }
  /// 1-based index of the phase currently executing (0 before init
  /// completes).
  [[nodiscard]] std::uint32_t phase() const noexcept { return phase_; }
  [[nodiscard]] const tree::LocalTreeView& view() const noexcept {
    return view_;
  }
  [[nodiscard]] const tree::TreeShape& shape() const noexcept {
    return *shape_;
  }
  /// Candidate target chosen this phase (kNoNode outside round 1).
  [[nodiscard]] tree::NodeId candidate_target() const noexcept {
    return my_target_;
  }
  /// Number of received paths whose anchor disagreed with this view's
  /// position for the sender — i.e. observed violations of Proposition 1's
  /// view synchrony. Always 0 under MovementOrder::kDepthThenLabel; the
  /// label-order ablation racks these up (see bench_ablation).
  [[nodiscard]] std::uint64_t divergence_repairs() const noexcept {
    return divergence_repairs_;
  }
  /// Senders this process has caught lying (tolerate_byzantine only).
  [[nodiscard]] std::size_t suspected_count() const noexcept {
    return suspected_count_;
  }
  /// Balls this process restarted at the root — evicted from a
  /// multiply-claimed leaf, or unstuck from an inner node whose subtree had
  /// filled up under it (tolerate_byzantine only).
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  [[nodiscard]] tree::NodeId choose_target(tree::NodeId current);
  /// The round's ball-processing order. Aliases view scratch (<R order) or
  /// ablation_order_ (label-order ablation); valid until the next call,
  /// across the movement mutations the processing loops perform.
  [[nodiscard]] std::span<const sim::Label> movement_order();
  void process_init(std::span<const sim::Envelope> inbox);
  void process_round1(std::span<const sim::Envelope> inbox);
  void process_round2(std::span<const sim::Envelope> inbox);
  void maybe_finish();

  // -- Byzantine validation (tolerate_byzantine only) ----------------------
  void process_init_tolerant(std::span<const sim::Envelope> inbox);
  void process_round1_tolerant(std::span<const sim::Envelope> inbox);
  void process_round2_tolerant(std::span<const sim::Envelope> inbox);
  /// Marks a sender as lying and removes its ball from the view (a caught
  /// liar is silenced for good — the damage cap behind f-tolerance).
  void suspect(sim::ProcessId sender);
  /// True iff `from` is the sender bound to `label` and not suspected.
  [[nodiscard]] bool trusted_claim(sim::ProcessId from, sim::Label label) const;
  /// The label `sender` bound at init, if any.
  [[nodiscard]] std::optional<sim::Label> bound_label(
      sim::ProcessId sender) const {
    return sender < label_of_sender_.size() ? label_of_sender_[sender]
                                            : std::nullopt;
  }
  [[nodiscard]] bool is_suspected(sim::ProcessId sender) const {
    return sender < suspected_.size() && suspected_[sender] != 0;
  }
  /// The sender bound to `label` at init, or kNoProcess.
  [[nodiscard]] sim::ProcessId owner_of(sim::Label label) const;
  /// Lowest label keeps a multiply-claimed leaf; the rest restart at the
  /// root, as does any ball stranded at an inner node with no free leaf
  /// below it (the unstick rule). Runs after each position round.
  void resolve_leaf_conflicts();

  Options options_;
  Rng rng_;
  std::shared_ptr<const tree::TreeShape> shape_;
  tree::LocalTreeView view_;
  tree::NodeId my_target_ = tree::kNoNode;
  /// 1-based phase counter; 0 until the init round completes.
  std::uint32_t phase_ = 0;
  std::uint64_t divergence_repairs_ = 0;
  /// movement_order scratch for the label-order ablation.
  std::vector<sim::Label> ablation_order_;

  // -- Byzantine validation state (tolerate_byzantine only; all empty and
  // untouched in crash-only runs) ------------------------------------------
  /// label ↔ sender bindings, formed at init only (first init per sender
  /// wins): the bound label per sender id, and the same bindings as
  /// (label, sender) pairs sorted by label, frozen once init completes.
  std::vector<std::optional<sim::Label>> label_of_sender_;
  std::vector<std::pair<sim::Label, sim::ProcessId>> sender_of_label_;
  /// Suspected flag per sender id, and the number set.
  std::vector<char> suspected_;
  std::size_t suspected_count_ = 0;
  std::uint64_t evictions_ = 0;
  /// resolve_leaf_conflicts scratch: entry r + 1 flags leaf rank r as
  /// claimed, then becomes the number of claimed ranks below r + 1.
  std::vector<std::uint32_t> leaf_claims_;
};

}  // namespace bil::core
