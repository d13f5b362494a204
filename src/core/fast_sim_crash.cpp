#include "core/fast_sim_crash.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "core/delivery_classes.h"
#include "core/fast_sim_targeted.h"
#include "core/seeds.h"
#include "core/targeted_adversary.h"
#include "tree/local_view.h"
#include "util/contract.h"
#include "util/rng.h"

namespace bil::core {

namespace {

enum class Status : std::uint8_t { kAlive, kHalted, kCrashed };

/// A crashed ball's stale entry, present only in the views of `members`
/// (the recipients of its final broadcast). Created by init/position-round
/// crashes, consulted for one path round's target choices and the halt
/// check, then purged (see the header's divergence model).
struct Ghost {
  sim::Label label = 0;
  tree::NodeId node = tree::kNoNode;
  /// members[id] != 0 iff ball id received the victim's final broadcast.
  std::vector<char> members;
};

/// Count overlay: the canonical view plus the ghost entries a specific
/// ball's local view still contains. Satisfies the view concept the policy
/// samplers are templated over; they saturate capacities at 0 exactly like
/// tree::LocalTreeView (stale entries can overfill a subtree).
class GhostedView {
 public:
  GhostedView(const tree::LocalTreeView& base,
              std::span<const tree::NodeId> extras) noexcept
      : base_(base), extras_(extras) {}

  [[nodiscard]] const tree::TreeShape& shape() const noexcept {
    return base_.shape();
  }

  [[nodiscard]] std::uint32_t balls_in_subtree(tree::NodeId node) const {
    std::uint32_t balls = base_.balls_in_subtree(node);
    // Most balls hold no ghost (every ball, without crashes), and then this
    // is the view's own count.
    for (const tree::NodeId extra : extras_) {
      if (base_.shape().is_ancestor_or_self(node, extra)) {
        ++balls;
      }
    }
    return balls;
  }

 private:
  const tree::LocalTreeView& base_;
  std::span<const tree::NodeId> extras_;
};

class CrashFastSim {
 public:
  /// With `typed_traffic`, the adversary's view carries each round's
  /// announcements as a core::RoundTraffic record (core/fast_sim_targeted.h).
  CrashFastSim(const CrashFastSimOptions& options, sim::Adversary* adversary,
               bool typed_traffic)
      : options_(options),
        adversary_(adversary),
        shape_(tree::TreeShape::make(options.n)),
        view_(shape_),
        status_(options.n, Status::kAlive),
        targets_(options.n, tree::kNoNode),
        names_(options.n, 0),
        seen_(options.n, 0),
        classes_(options.n) {
    rngs_.reserve(options.n);
    for (std::uint32_t i = 0; i < options.n; ++i) {
      rngs_.emplace_back(derive_seed(options.seed, kSeedDomainProcess, i));
    }
    if (typed_traffic) {
      // Fast-sim compatibility pins labels to ids (api::backend).
      labels_.resize(options.n);
      std::iota(labels_.begin(), labels_.end(), sim::Label{0});
      positions_.resize(options.n);
      traffic_ = RoundTraffic{
          .labels = labels_, .nodes = positions_, .targets = targets_};
    }
  }

  CrashFastSimResult run() {
    // The engine's default safety cap (sim::EngineConfig::max_rounds).
    const sim::RoundNumber max_rounds = 16 * options_.n + 64;
    alive_count_ = options_.n;
    sim::RoundNumber round = 0;
    while (alive_count_ > 0 && round < max_rounds) {
      step(round);
      ++round;
    }

    CrashFastSimResult result;
    result.completed = alive_count_ == 0;
    result.total_rounds = round;
    BIL_ENSURE(result.completed, "crash fast sim hit its round cap");
    BIL_ENSURE(any_decided_, "no correct ball decided");
    result.rounds = last_decide_round_ + 1;
    result.crashes = crashes_so_far_;
    result.deliveries = deliveries_;
    result.names = std::move(names_);
    return result;
  }

 private:
  void step(sim::RoundNumber round) {
    // ---- Send phase (symbolic). Every alive ball broadcasts exactly one
    // message: its label (round 0), its candidate path (odd rounds), or its
    // position (even rounds > 0). Path rounds are the only ones whose
    // content matters here — and the only ones that consume protocol coins.
    alive_.clear();
    for (std::uint32_t id = 0; id < options_.n; ++id) {
      if (status_[id] == Status::kAlive) {
        alive_.push_back(id);
      }
    }
    if (round % 2 == 1) {
      compute_targets(round);
      // The entries of balls that halted last round — and last phase's
      // ghosts — are purged at their <R turn during this round's movement
      // in the engine. Both sit where they cannot deflect anyone processed
      // before their turn (halted balls at leaves, ghosts per the stale-
      // entry argument), so dropping them before the movement pass is
      // exact. Target choices above already saw them.
      for (const sim::Label label : halted_pending_) {
        view_.remove(label);
      }
      halted_pending_.clear();
      ghosts_.clear();
    }

    // ---- Adversary phase: identical observation point to the engine —
    // after sends, before delivery — against the same alive list.
    sim::CrashPlan plan;
    if (adversary_ != nullptr) {
      const std::uint32_t budget = options_.max_crashes - crashes_so_far_;
      adversary_->schedule(
          sim::make_schedule_view(round, options_.n, alive_, budget,
                                  announcements(round, budget)),
          plan);
    }
    deliver_to_.resize(plan.crashes().size());
    for (std::size_t v = 0; v < plan.crashes().size(); ++v) {
      const sim::CrashPlan::Crash& crash = plan.crashes()[v];
      BIL_REQUIRE(crash.victim < options_.n, "crash victim id out of range");
      // A victim named twice in one plan is already kCrashed here.
      BIL_REQUIRE(status_[crash.victim] == Status::kAlive,
                  "adversary crashed a process that is not alive");
      BIL_REQUIRE(crashes_so_far_ < options_.max_crashes,
                  "adversary exceeded its crash budget t");
      status_[crash.victim] = Status::kCrashed;
      ++crashes_so_far_;
      --alive_count_;
      collect_recipients(crash, deliver_to_[v]);
    }

    // ---- Delivery accounting, analytically: the (A−c) surviving
    // recipients each receive the (A−c) surviving broadcasts, plus each
    // victim's final messages to the surviving part of its subset.
    const auto survivors = static_cast<std::uint64_t>(alive_.size()) -
                           plan.crashes().size();
    deliveries_ += survivors * survivors;
    for (std::size_t v = 0; v < plan.crashes().size(); ++v) {
      for (const sim::ProcessId recipient : deliver_to_[v]) {
        if (status_[recipient] == Status::kAlive) {
          ++deliveries_;
        }
      }
    }

    // ---- Receive phase.
    if (round == 0) {
      process_init(plan);
    } else if (round % 2 == 1) {
      process_path_round(plan);
    } else {
      process_position_round(round, plan);
    }
  }

  /// This round's announcements for a protocol-aware adversary, or null
  /// without typed traffic. Every alive ball announces its own-view position
  /// (its start, on path rounds), which is view_.current(id) here, and on
  /// path rounds its target from targets_ (core/fast_sim_targeted.h). Round
  /// 0 and a spent budget fill nothing: the adversary reads nothing then.
  const RoundTraffic* announcements(sim::RoundNumber round,
                                    std::uint32_t budget) {
    if (labels_.empty() || round == 0 || budget == 0) {
      return nullptr;
    }
    for (const sim::ProcessId id : alive_) {
      positions_[id] = view_.current(id);
    }
    return &traffic_;
  }

  /// Round 0: survivors insert each other at the root; each init victim
  /// leaves a root ghost in its recipients' views (which shifts their
  /// phase-1 node-mate ranks — Theorem 4's rank-divergence mechanism —
  /// but no child capacity, so the randomized policies are unaffected).
  void process_init(const sim::CrashPlan& plan) {
    std::vector<sim::Label> labels;
    labels.reserve(options_.n);
    for (std::uint32_t id = 0; id < options_.n; ++id) {
      if (status_[id] == Status::kAlive) {
        labels.push_back(id);
      }
    }
    view_.insert_all_at_root(labels);
    add_ghosts(plan, [](const sim::CrashPlan::Crash&) {
      return tree::TreeShape::root();
    });
  }

  /// Odd rounds: candidate-path exchange and <R-ordered capacity-clipped
  /// movement. Crash-subset delivery partitions the alive balls into
  /// delivery classes; each ball's canonical position becomes its own
  /// class's outcome (what it would announce — and every view adopt — next
  /// round).
  void process_path_round(const sim::CrashPlan& plan) {
    const std::span<const sim::CrashPlan::Crash> crashes = plan.crashes();
    if (crashes.empty()) {
      // Single class, no victims: move in place.
      for (const sim::Label label : view_.ordered_balls()) {
        view_.descend_toward(
            label, targets_[static_cast<std::uint32_t>(label)]);
      }
      return;
    }

    // Each survivor lands at its own delivery class's outcome, and the
    // victims leave every view by the end of the next round without
    // further effect (core/delivery_classes.h).
    victims_.clear();
    for (const sim::CrashPlan::Crash& crash : crashes) {
      victims_.push_back(crash.victim);
    }
    classes_.move(view_, targets_, alive_, victims_, deliver_to_);
  }

  /// Even rounds > 0: position synchronization, ghost creation for this
  /// round's victims, and the halt check (Algorithm 1 line 29). All views
  /// agree on every correct ball's announced position; they disagree only
  /// about this round's victims — whose stale entries block the halt check
  /// for exactly their recipients when parked on a non-leaf node.
  void process_position_round(sim::RoundNumber round,
                              const sim::CrashPlan& plan) {
    add_ghosts(plan, [this](const sim::CrashPlan::Crash& crash) {
      return view_.current(crash.victim);
    });
    for (const sim::CrashPlan::Crash& crash : plan.crashes()) {
      view_.remove(crash.victim);
    }
    if (options_.observer != nullptr) {
      options_.observer->on_phase_end(view_, snapshot_view(view_, round / 2));
    }
    if (!view_.all_at_leaves()) {
      return;
    }
    for (const sim::ProcessId id : alive_) {
      if (status_[id] != Status::kAlive) {
        continue;  // crashed this round
      }
      bool blocked = false;
      for (const Ghost& ghost : ghosts_) {
        if (ghost.members[id] != 0 && !shape_->is_leaf(ghost.node)) {
          blocked = true;
          break;
        }
      }
      if (blocked) {
        continue;  // its view still shows a ball on an inner node
      }
      status_[id] = Status::kHalted;
      --alive_count_;
      names_[id] = shape_->leaf_rank(view_.current(id)) + 1;
      last_decide_round_ = round;
      any_decided_ = true;
      halted_pending_.push_back(id);
    }
  }

  /// Target choice for every alive ball, against its own view = canonical
  /// view + the ghosts it received. Engine-equivalent inputs: subtree
  /// capacities via the GhostedView overlay, node-mate ranks and halving
  /// mates adjusted by co-located ghosts, per-ball coins from the same
  /// derived stream.
  void compute_targets(sim::RoundNumber round) {
    const std::uint32_t phase = (round + 1) / 2;
    std::vector<std::uint32_t> rank_of;
    std::vector<std::uint32_t> mates_of;
    if (needs_ranks(options_.policy, phase)) {
      rank_of.assign(options_.n, 0);
      mates_of.assign(options_.n, 0);
      // One sort gives every alive inner ball's rank among its node mates
      // (halted balls sit on leaves and cannot be node mates of a ball
      // that still needs a path).
      std::vector<std::pair<tree::NodeId, sim::Label>> by_node;
      by_node.reserve(alive_.size());
      for (const sim::ProcessId id : alive_) {
        const tree::NodeId node = view_.current(id);
        if (!shape_->is_leaf(node)) {
          by_node.emplace_back(node, id);
        }
      }
      std::sort(by_node.begin(), by_node.end());
      for (std::size_t k = 0; k < by_node.size();) {
        std::size_t end = k;
        while (end < by_node.size() && by_node[end].first == by_node[k].first) {
          ++end;
        }
        const auto mates = static_cast<std::uint32_t>(end - k);
        for (std::size_t j = k; j < end; ++j) {
          const auto id = static_cast<std::uint32_t>(by_node[j].second);
          rank_of[id] = static_cast<std::uint32_t>(j - k);
          mates_of[id] = mates;
        }
        k = end;
      }
    }

    std::vector<tree::NodeId> extras;
    for (const sim::ProcessId id : alive_) {
      const tree::NodeId current = view_.current(id);
      if (shape_->is_leaf(current)) {
        targets_[id] = current;  // trivial path; no coins, no ranks
        continue;
      }
      extras.clear();
      std::uint32_t ghost_rank = 0;
      std::uint32_t ghost_mates = 0;
      for (const Ghost& ghost : ghosts_) {
        if (ghost.members[id] == 0) {
          continue;
        }
        extras.push_back(ghost.node);
        if (ghost.node == current) {
          ++ghost_mates;
          if (ghost.label < id) {
            ++ghost_rank;
          }
        }
      }
      targets_[id] = choose_target(
          options_.policy, phase, GhostedView(view_, extras), current,
          rngs_[id], [&] { return rank_of[id] + ghost_rank; },
          [&] { return mates_of[id] + ghost_mates; });
    }
  }

  template <typename NodeOf>
  void add_ghosts(const sim::CrashPlan& plan, NodeOf node_of) {
    for (std::size_t v = 0; v < plan.crashes().size(); ++v) {
      Ghost ghost;
      ghost.label = plan.crashes()[v].victim;
      ghost.node = node_of(plan.crashes()[v]);
      ghost.members.assign(options_.n, 0);
      for (const sim::ProcessId recipient : deliver_to_[v]) {
        ghost.members[recipient] = 1;
      }
      ghosts_.push_back(std::move(ghost));
    }
  }

  /// CrashPlan::deliver_to is a set (sim/adversary.h): rejects an
  /// out-of-range recipient with the engine's diagnostic and writes each
  /// distinct recipient once, in first-seen order, to `out`.
  void collect_recipients(const sim::CrashPlan::Crash& crash,
                          std::vector<sim::ProcessId>& out) {
    out.clear();
    ++stamp_;
    for (const sim::ProcessId recipient : crash.deliver_to) {
      BIL_REQUIRE(recipient < options_.n,
                  "crash delivery recipient out of range");
      if (seen_[recipient] != stamp_) {
        seen_[recipient] = stamp_;
        out.push_back(recipient);
      }
    }
  }

  CrashFastSimOptions options_;
  sim::Adversary* adversary_;
  std::shared_ptr<const tree::TreeShape> shape_;
  tree::LocalTreeView view_;
  std::vector<Status> status_;
  std::vector<Rng> rngs_;
  std::vector<sim::ProcessId> alive_;
  std::vector<tree::NodeId> targets_;
  /// Typed traffic only: labels_[id] == id, each alive ball's announced
  /// node this round, and the record over them and targets_.
  std::vector<sim::Label> labels_;
  std::vector<tree::NodeId> positions_;
  RoundTraffic traffic_;
  std::vector<sim::Label> halted_pending_;
  std::vector<Ghost> ghosts_;
  std::vector<std::uint64_t> names_;
  /// deliver_to_[v]: the distinct recipients of this round's v-th crash.
  std::vector<std::vector<sim::ProcessId>> deliver_to_;
  /// seen_[id] == stamp_ iff id is already in the crash being collected.
  std::vector<std::uint32_t> seen_;
  std::uint32_t stamp_ = 0;
  /// This round's victims, in plan order.
  std::vector<sim::ProcessId> victims_;
  DeliveryClassMover classes_;
  std::uint32_t alive_count_ = 0;
  std::uint32_t crashes_so_far_ = 0;
  std::uint64_t deliveries_ = 0;
  sim::RoundNumber last_decide_round_ = 0;
  bool any_decided_ = false;
};

CrashFastSimResult simulate(const CrashFastSimOptions& options,
                            sim::Adversary* adversary, bool typed_traffic) {
  BIL_REQUIRE(options.n >= 1, "need at least one ball");
  BIL_REQUIRE(options.max_crashes < options.n,
              "crash budget t must satisfy t < n");
  return CrashFastSim(options, adversary, typed_traffic).run();
}

}  // namespace

CrashFastSimResult run_fast_sim_crash(const CrashFastSimOptions& options,
                                      sim::Adversary* adversary) {
  return simulate(options, adversary, /*typed_traffic=*/false);
}

CrashFastSimResult run_fast_sim_targeted(const CrashFastSimOptions& options,
                                         sim::Adversary* adversary) {
  return simulate(options, adversary, /*typed_traffic=*/true);
}

void validate_fast_names(std::span<const std::uint64_t> names,
                         std::uint32_t n, std::uint32_t crashes) {
  std::vector<bool> used(n + 1, false);
  std::uint32_t undecided = 0;
  for (const std::uint64_t name : names) {
    if (name == 0) {
      ++undecided;  // crashed balls owe nothing
      continue;
    }
    BIL_ENSURE(name <= n, "fast sim name out of range");
    BIL_ENSURE(!used[name], "fast sim assigned a duplicate name");
    used[name] = true;
  }
  BIL_ENSURE(undecided == crashes,
             "fast sim left a correct ball without a name");
}

}  // namespace bil::core
