// Cross-validation suite for the traffic-oracle fast path
// (core/fast_sim_targeted.h through api::FastSimBackend): for every tree
// algorithm × targeted adversary mode × subset policy on a shared grid, the
// typed-traffic replay must reproduce the engine's run *exactly* — rounds,
// total rounds, committed crash count, the full decided-name vector, and
// the delivery count.
//
// This is the executable form of the bit-identity argument in
// core/fast_sim_targeted.h: on the engine the adversary decodes
// candidate-path and position traffic off the wire, on the fast sim it
// reads the typed record, so if any reconstructed field (a ball's own-view
// position, its candidate target, the iteration order, or the RNG stream
// feeding subset draws) differed from the engine's, victim selection would
// diverge and some cell here would catch it. The TargetedGrouping tests
// below feed the same random rounds both ways to the adversary alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/backend.h"
#include "core/messages.h"
#include "core/targeted_adversary.h"
#include "tree/shape.h"
#include "util/contract.h"
#include "util/rng.h"

namespace bil {
namespace {

using harness::Algorithm;
using harness::AdversaryKind;
using harness::AdversarySpec;

constexpr Algorithm kTreeAlgorithms[] = {
    Algorithm::kBallsIntoLeaves,
    Algorithm::kEarlyTerminating,
    Algorithm::kRankDescent,
    Algorithm::kHalving,
};

constexpr AdversaryKind kTargetedKinds[] = {
    AdversaryKind::kTargetedWinner,
    AdversaryKind::kTargetedAnnouncer,
};

std::string describe(const api::CellConfig& cell, std::uint64_t seed) {
  std::string text = harness::to_string(cell.algorithm);
  text += " / ";
  text += harness::to_string(cell.adversary.kind);
  text += " (t=" + std::to_string(cell.adversary.crashes);
  text += ", per_round=" + std::to_string(cell.adversary.per_round);
  text += ", subset=" +
          std::to_string(static_cast<int>(cell.adversary.subset));
  text += ") / n=" + std::to_string(cell.n);
  text += " / seed=" + std::to_string(seed);
  return text;
}

void expect_backends_match(const api::CellConfig& cell, std::uint64_t seed) {
  const api::EngineBackend engine;
  const api::FastSimBackend fast;
  const api::RunRecord expected = engine.run(cell, seed);
  const api::RunRecord observed = fast.run(cell, seed);
  const std::string what = describe(cell, seed);
  EXPECT_EQ(observed.rounds, expected.rounds) << what;
  EXPECT_EQ(observed.total_rounds, expected.total_rounds) << what;
  EXPECT_EQ(observed.crashes, expected.crashes) << what;
  EXPECT_EQ(observed.messages_delivered, expected.messages_delivered) << what;
  ASSERT_EQ(observed.names.size(), expected.names.size()) << what;
  for (std::size_t i = 0; i < expected.names.size(); ++i) {
    ASSERT_EQ(observed.names[i], expected.names[i])
        << what << " — ball " << i << " diverged";
  }
  // The fast path hands the adversary typed announcements, never wire
  // bytes, and materializes no deliveries, so byte counts stay unmeasured.
  EXPECT_TRUE(expected.bytes_measured);
  EXPECT_FALSE(observed.bytes_measured);
}

api::CellConfig cell_for(Algorithm algorithm, std::uint32_t n,
                         AdversarySpec adversary) {
  api::CellConfig cell;
  cell.algorithm = algorithm;
  cell.n = n;
  cell.adversary = adversary;
  return cell;
}

// ---- The full shared-domain grid: both modes, every subset policy ----------

TEST(FastSimTargeted, MatchesEngineEverySubsetPolicy) {
  // kContendedWinner fires on path rounds (delivery classes),
  // kDeepestAnnouncer on position rounds (ghost entries) — together they
  // exercise both halves of the divergence machinery under adaptively
  // chosen victims.
  for (Algorithm algorithm : kTreeAlgorithms) {
    for (AdversaryKind kind : kTargetedKinds) {
      for (std::uint32_t n : {5u, 16u, 48u, 129u}) {
        for (sim::SubsetPolicy subset :
             {sim::SubsetPolicy::kSilent, sim::SubsetPolicy::kAlternating,
              sim::SubsetPolicy::kRandomHalf, sim::SubsetPolicy::kAll}) {
          for (std::uint64_t seed : {1ULL, 9001ULL}) {
            AdversarySpec spec;
            spec.kind = kind;
            spec.crashes = n / 4;
            spec.per_round = 2;
            spec.subset = subset;
            expect_backends_match(cell_for(algorithm, n, spec), seed);
          }
        }
      }
    }
  }
}

TEST(FastSimTargeted, MatchesEngineSingleVictimRounds) {
  // per_round=1 takes the other branch of the winner's group-sort logic
  // (a lone victim per round, no same-round subset interactions).
  for (AdversaryKind kind : kTargetedKinds) {
    for (std::uint32_t n : {16u, 48u, 129u}) {
      AdversarySpec spec;
      spec.kind = kind;
      spec.crashes = n / 2;
      spec.per_round = 1;
      spec.subset = sim::SubsetPolicy::kRandomHalf;
      expect_backends_match(cell_for(Algorithm::kBallsIntoLeaves, n, spec), 3);
    }
  }
}

// ---- The n = 2^12 anchor of the shared-domain grid -------------------------

TEST(FastSimTargeted, MatchesEngineAtFourThousandBalls) {
  // Top of the cross-validation grid, one cell per mode (larger n is
  // fast-sim-only territory).
  const std::uint32_t n = 1u << 12;
  for (AdversaryKind kind : kTargetedKinds) {
    AdversarySpec spec;
    spec.kind = kind;
    spec.crashes = 64;
    spec.per_round = 2;
    spec.subset = sim::SubsetPolicy::kAlternating;
    expect_backends_match(cell_for(Algorithm::kBallsIntoLeaves, n, spec), 5);
  }
}

// ---- Backend routing --------------------------------------------------------

TEST(FastSimTargeted, AutoRoutesLargeTargetedCellsToTheFastPath) {
  AdversarySpec spec;
  spec.kind = AdversaryKind::kTargetedAnnouncer;
  spec.crashes = 8;
  api::CellConfig cell = cell_for(Algorithm::kBallsIntoLeaves,
                                  api::kAutoFastSimTargetedMinN, spec);
  EXPECT_TRUE(api::fast_sim_compatible(cell));
  EXPECT_EQ(api::select_backend(cell), api::BackendKind::kFastSim);
  cell.n = api::kAutoFastSimTargetedMinN - 1;
  EXPECT_EQ(api::select_backend(cell), api::BackendKind::kEngine);
}

// ---- Fast-only scale smoke --------------------------------------------------

TEST(FastSimTargeted, TargetedCellsScaleBeyondTheEngine) {
  // No engine reference here (that is the point): the fast path must stay
  // valid — complete, tight surviving namespace, budget-bounded crashes —
  // at sizes where an engine run under a targeted adversary takes minutes.
  const std::uint32_t n = 1u << 16;
  const api::FastSimBackend fast;
  for (AdversaryKind kind : kTargetedKinds) {
    AdversarySpec spec;
    spec.kind = kind;
    spec.crashes = 64;
    spec.per_round = 2;
    spec.subset = sim::SubsetPolicy::kAlternating;
    const api::RunRecord record =
        fast.run(cell_for(Algorithm::kBallsIntoLeaves, n, spec), 1);
    EXPECT_LE(record.crashes, 64u);
    std::uint32_t named = 0;
    for (std::uint64_t name : record.names) {
      named += name != 0 ? 1 : 0;
    }
    EXPECT_EQ(named, n - record.crashes);
  }
}

// ---- Flat contended-winner grouping vs the map-of-vectors original ---------

/// The contended-winner step as it was written before the flat grouping: a
/// std::map of per-target claimant vectors, copied into a vector and sorted
/// by group size. Kept verbatim (bar naming) as the differential reference.
class MapGroupingContendedWinner final : public sim::Adversary {
 public:
  MapGroupingContendedWinner(std::shared_ptr<const tree::TreeShape> shape,
                             std::uint32_t per_round,
                             sim::SubsetPolicy subset, std::uint64_t seed)
      : shape_(std::move(shape)),
        per_round_(per_round),
        subset_(subset),
        rng_(seed) {}

  void schedule(const sim::RoundView& view, sim::CrashPlan& plan) override {
    if (view.round() == 0 || view.crash_budget_remaining() == 0 ||
        view.round() % 2 != 1) {
      return;
    }
    std::vector<std::pair<sim::ProcessId, core::PathMsg>> paths;
    for (sim::ProcessId id : view.alive()) {
      for (const sim::OutboundMessage& message : view.outgoing(id)) {
        try {
          const core::Message decoded = core::decode_message(*message.payload);
          if (const auto* msg = std::get_if<core::PathMsg>(&decoded)) {
            paths.emplace_back(id, *msg);
            break;
          }
        } catch (const wire::WireError&) {
        }
      }
    }
    struct Claimant {
      sim::ProcessId id;
      std::uint32_t start_depth;
      sim::Label label;
    };
    std::map<tree::NodeId, std::vector<Claimant>> by_target;
    for (const auto& [id, msg] : paths) {
      if (msg.start == msg.target || msg.target >= shape_->num_nodes()) {
        continue;
      }
      by_target[msg.target].push_back(
          Claimant{id, shape_->depth(msg.start), msg.label});
    }
    std::vector<std::pair<tree::NodeId, std::vector<Claimant>>> groups(
        by_target.begin(), by_target.end());
    std::sort(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
      return a.second.size() > b.second.size();
    });
    std::uint32_t budget = std::min(per_round_, view.crash_budget_remaining());
    for (auto& [target, claimants] : groups) {
      if (budget == 0) {
        break;
      }
      const auto winner = std::min_element(
          claimants.begin(), claimants.end(),
          [](const Claimant& a, const Claimant& b) {
            if (a.start_depth != b.start_depth) {
              return a.start_depth > b.start_depth;
            }
            return a.label < b.label;
          });
      plan.crash(winner->id,
                 sim::make_delivery_subset(view, winner->id, subset_, rng_));
      --budget;
    }
  }

 private:
  std::shared_ptr<const tree::TreeShape> shape_;
  std::uint32_t per_round_;
  sim::SubsetPolicy subset_;
  Rng rng_;
};

/// The deepest-announcer step as it was written before the typed record:
/// position messages decoded off the wire in alive order, then std::sort by
/// depth. Kept as the differential reference for kDeepestAnnouncer.
class DecodedDeepestAnnouncer final : public sim::Adversary {
 public:
  DecodedDeepestAnnouncer(std::shared_ptr<const tree::TreeShape> shape,
                          std::uint32_t per_round, sim::SubsetPolicy subset,
                          std::uint64_t seed)
      : shape_(std::move(shape)),
        per_round_(per_round),
        subset_(subset),
        rng_(seed) {}

  void schedule(const sim::RoundView& view, sim::CrashPlan& plan) override {
    if (view.round() == 0 || view.crash_budget_remaining() == 0 ||
        view.round() % 2 != 0) {
      return;
    }
    std::vector<std::pair<sim::ProcessId, core::PositionMsg>> positions;
    for (sim::ProcessId id : view.alive()) {
      for (const sim::OutboundMessage& message : view.outgoing(id)) {
        try {
          const core::Message decoded = core::decode_message(*message.payload);
          if (const auto* msg = std::get_if<core::PositionMsg>(&decoded)) {
            positions.emplace_back(id, *msg);
            break;
          }
        } catch (const wire::WireError&) {
        }
      }
    }
    std::sort(positions.begin(), positions.end(),
              [this](const auto& a, const auto& b) {
                return shape_->depth(a.second.node) >
                       shape_->depth(b.second.node);
              });
    const std::uint32_t budget =
        std::min(per_round_, view.crash_budget_remaining());
    for (std::uint32_t i = 0; i < budget && i < positions.size(); ++i) {
      const sim::ProcessId victim = positions[i].first;
      plan.crash(victim,
                 sim::make_delivery_subset(view, victim, subset_, rng_));
    }
  }

 private:
  std::shared_ptr<const tree::TreeShape> shape_;
  std::uint32_t per_round_;
  sim::SubsetPolicy subset_;
  Rng rng_;
};

/// One round's announcements two ways: as the wire outboxes the engine
/// holds, and as the typed record the fast sim attaches to its view.
struct TwoWayRound {
  explicit TwoWayRound(std::uint32_t n)
      : outboxes(n),
        labels(n, 0),
        nodes(n, tree::kNoNode),
        targets(n, tree::kNoNode) {}

  /// Announces `msg` from `id` in both forms.
  void announce(sim::ProcessId id, const core::PathMsg& msg) {
    outboxes[id].broadcast(core::encode_message(msg));
    labels[id] = msg.label;
    nodes[id] = msg.start;
    targets[id] = msg.target;
  }
  void announce(sim::ProcessId id, const core::PositionMsg& msg) {
    outboxes[id].broadcast(core::encode_message(msg));
    labels[id] = msg.label;
    nodes[id] = msg.node;
  }

  /// What the engine's adversary sees: outboxes and no record.
  [[nodiscard]] sim::RoundView wire_view(sim::RoundNumber round) const {
    return sim::RoundView(round, static_cast<std::uint32_t>(outboxes.size()),
                          alive, {}, outboxes, kBudget);
  }
  /// What the fast sim's adversary sees: the record and no outboxes.
  [[nodiscard]] sim::RoundView typed_view(sim::RoundNumber round) {
    record = core::RoundTraffic{
        .labels = labels, .nodes = nodes, .targets = targets};
    return sim::make_schedule_view(
        round, static_cast<std::uint32_t>(outboxes.size()), alive, kBudget,
        &record);
  }

  static constexpr std::uint32_t kBudget = 200;
  std::vector<sim::ProcessId> alive;
  std::vector<sim::Outbox> outboxes;
  std::vector<sim::Label> labels;
  std::vector<tree::NodeId> nodes;
  std::vector<tree::NodeId> targets;
  core::RoundTraffic record;
};

std::vector<sim::ProcessId> random_alive(std::uint32_t n, Rng& rng) {
  std::vector<sim::ProcessId> alive;
  for (sim::ProcessId id = 0; id < n; ++id) {
    if (rng.below(8) != 0) {
      alive.push_back(id);
    }
  }
  return alive;
}

/// A handful of random nodes, so that many announcements tie on depth.
std::vector<tree::NodeId> random_nodes(const tree::TreeShape& shape,
                                       Rng& rng) {
  std::vector<tree::NodeId> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(static_cast<tree::NodeId>(rng.below(shape.num_nodes())));
  }
  return nodes;
}

/// One random path round over a random alive subset: 24..48 contended
/// targets whose group sizes come from a two-value set (so most groups tie
/// on size and std::sort runs its introsort partitioning, not only its
/// insertion-sort tail), start depths from a handful of nodes (so winners
/// tie on depth and fall back to labels), plus trivial and out-of-range
/// paths the adversary must skip.
TwoWayRound random_path_round(const tree::TreeShape& shape, std::uint32_t n,
                              Rng& rng) {
  TwoWayRound round(n);
  round.alive = random_alive(n, rng);
  const auto groups = static_cast<std::uint32_t>(rng.between(24, 48));
  std::vector<tree::NodeId> targets;
  while (targets.size() < groups) {
    const auto node = static_cast<tree::NodeId>(rng.below(shape.num_nodes()));
    if (std::find(targets.begin(), targets.end(), node) == targets.end()) {
      targets.push_back(node);
    }
  }
  const std::uint64_t small = rng.between(1, 3);
  std::vector<tree::NodeId> claims;
  for (const tree::NodeId target : targets) {
    const std::uint64_t size = rng.below(3) == 0 ? small + 2 : small;
    claims.insert(claims.end(), size, target);
  }
  const std::vector<tree::NodeId> starts = random_nodes(shape, rng);
  for (const sim::ProcessId id : round.alive) {
    const sim::Label label = rng.below(4 * n);
    const tree::NodeId start = starts[rng.below(starts.size())];
    tree::NodeId target = start;  // trivial path unless a claim is left
    if (!claims.empty() && rng.below(8) != 0) {
      const std::size_t pick = rng.below(claims.size());
      target = claims[pick];
      claims.erase(claims.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (rng.below(4) == 0) {
      target = shape.num_nodes() + static_cast<tree::NodeId>(rng.below(9));
    }
    round.announce(id, core::PathMsg{label, start, target});
  }
  return round;
}

/// One random position round over a random alive subset, positions drawn
/// from a handful of nodes so that the depth sort sees long runs of ties.
TwoWayRound random_position_round(const tree::TreeShape& shape,
                                  std::uint32_t n, Rng& rng) {
  TwoWayRound round(n);
  round.alive = random_alive(n, rng);
  const std::vector<tree::NodeId> positions = random_nodes(shape, rng);
  for (const sim::ProcessId id : round.alive) {
    round.announce(id, core::PositionMsg{rng.below(4 * n),
                                         positions[rng.below(4)]});
  }
  return round;
}

void expect_same_plan(const sim::CrashPlan& expected,
                      const sim::CrashPlan& observed, const std::string& what) {
  ASSERT_EQ(observed.crashes().size(), expected.crashes().size()) << what;
  for (std::size_t v = 0; v < expected.crashes().size(); ++v) {
    EXPECT_EQ(observed.crashes()[v].victim, expected.crashes()[v].victim)
        << what << " — victim " << v;
    EXPECT_EQ(observed.crashes()[v].deliver_to,
              expected.crashes()[v].deliver_to)
        << what << " — deliver_to of victim " << v;
  }
}

constexpr sim::SubsetPolicy kSubsetPolicies[] = {
    sim::SubsetPolicy::kSilent, sim::SubsetPolicy::kAlternating,
    sim::SubsetPolicy::kRandomHalf, sim::SubsetPolicy::kAll};

std::string round_label(sim::SubsetPolicy subset, std::uint64_t trial,
                        sim::RoundNumber round) {
  return "subset " + std::to_string(static_cast<int>(subset)) + ", trial " +
         std::to_string(trial) + ", round " + std::to_string(round);
}

TEST(TargetedGrouping, FlatGroupingMatchesTheMapGroupingEveryPolicy) {
  // Three ways through the same rounds: the map-of-vectors reference on
  // the wire, the adversary decoding the same wire (the engine's path),
  // and the adversary reading the typed record (the fast sim's path).
  const std::uint32_t n = 256;
  const auto shape = tree::TreeShape::make(n);
  Rng inputs(0x6A0u);
  for (sim::SubsetPolicy subset : kSubsetPolicies) {
    for (std::uint64_t trial = 0; trial < 60; ++trial) {
      // per_round 64 crashes a winner from every group, so the whole
      // sorted group order is compared, not only its head.
      const auto per_round = trial % 3 == 0 ? 1u : 64u;
      const std::uint64_t seed = 1000 + trial;
      const core::TargetedCollisionAdversary::Options options{
          .mode = core::TargetedCollisionAdversary::Mode::kContendedWinner,
          .per_round = per_round,
          .subset_policy = subset};
      MapGroupingContendedWinner reference(shape, per_round, subset, seed);
      core::TargetedCollisionAdversary wire(shape, options, seed);
      core::TargetedCollisionAdversary typed(shape, options, seed);
      // Consecutive path rounds against the same objects: a plan that
      // drew differently from the subset RNG shows up in the next one.
      for (sim::RoundNumber r = 1; r < 8; r += 2) {
        TwoWayRound round = random_path_round(*shape, n, inputs);
        sim::CrashPlan expected;
        sim::CrashPlan from_wire;
        sim::CrashPlan from_record;
        reference.schedule(round.wire_view(r), expected);
        wire.schedule(round.wire_view(r), from_wire);
        typed.schedule(round.typed_view(r), from_record);
        const std::string what = round_label(subset, trial, r);
        expect_same_plan(expected, from_wire, what + " (wire)");
        expect_same_plan(expected, from_record, what + " (typed)");
      }
    }
  }
}

TEST(TargetedGrouping, DeepestAnnouncerMatchesTheDecodedSortEveryPolicy) {
  const std::uint32_t n = 256;
  const auto shape = tree::TreeShape::make(n);
  Rng inputs(0xDEE9u);
  for (sim::SubsetPolicy subset : kSubsetPolicies) {
    for (std::uint64_t trial = 0; trial < 30; ++trial) {
      // per_round 64 compares a long prefix of the sorted announcers.
      const auto per_round = trial % 3 == 0 ? 1u : 64u;
      const std::uint64_t seed = 2000 + trial;
      const core::TargetedCollisionAdversary::Options options{
          .mode = core::TargetedCollisionAdversary::Mode::kDeepestAnnouncer,
          .per_round = per_round,
          .subset_policy = subset};
      DecodedDeepestAnnouncer reference(shape, per_round, subset, seed);
      core::TargetedCollisionAdversary wire(shape, options, seed);
      core::TargetedCollisionAdversary typed(shape, options, seed);
      for (sim::RoundNumber r = 2; r < 10; r += 2) {
        TwoWayRound round = random_position_round(*shape, n, inputs);
        sim::CrashPlan expected;
        sim::CrashPlan from_wire;
        sim::CrashPlan from_record;
        reference.schedule(round.wire_view(r), expected);
        wire.schedule(round.wire_view(r), from_wire);
        typed.schedule(round.typed_view(r), from_record);
        const std::string what = round_label(subset, trial, r);
        expect_same_plan(expected, from_wire, what + " (wire)");
        expect_same_plan(expected, from_record, what + " (typed)");
      }
    }
  }
}

TEST(TargetedGrouping, EngineDecodeSkipsMalformedAndOffTypeMessages) {
  // Before its announcement every outbox holds a payload that does not
  // decode (a path with a trailing byte, or an unknown type tag) and a
  // protocol message of the other round type; a few outboxes hold no
  // announcement at all. Decoding must skip exactly those and give the
  // plan the typed record of the announcements alone gives.
  const std::uint32_t n = 64;
  const auto shape = tree::TreeShape::make(n);
  Rng inputs(0xBADu);
  for (const auto mode :
       {core::TargetedCollisionAdversary::Mode::kContendedWinner,
        core::TargetedCollisionAdversary::Mode::kDeepestAnnouncer}) {
    const bool path_round =
        mode == core::TargetedCollisionAdversary::Mode::kContendedWinner;
    const sim::RoundNumber r = path_round ? 3 : 4;
    for (std::uint64_t trial = 0; trial < 20; ++trial) {
      const core::TargetedCollisionAdversary::Options options{
          .mode = mode, .per_round = 8, .subset_policy =
              sim::SubsetPolicy::kRandomHalf};
      core::TargetedCollisionAdversary wire(shape, options, trial);
      core::TargetedCollisionAdversary typed(shape, options, trial);
      TwoWayRound noisy(n);
      TwoWayRound clean(n);
      const std::vector<tree::NodeId> nodes = random_nodes(*shape, inputs);
      for (sim::ProcessId id = 0; id < n; ++id) {
        noisy.alive.push_back(id);
        clean.alive.push_back(id);
        const sim::Label label = inputs.below(4 * n);
        const tree::NodeId node = nodes[inputs.below(nodes.size())];
        const tree::NodeId target = nodes[inputs.below(nodes.size())];
        wire::Buffer malformed =
            core::encode_message(core::PathMsg{label, node, target});
        if (inputs.below(2) == 0) {
          malformed.push_back(std::byte{0});
        } else {
          malformed.front() = std::byte{0xEE};
        }
        noisy.outboxes[id].broadcast(std::move(malformed));
        if (path_round) {
          noisy.outboxes[id].broadcast(
              core::encode_message(core::PositionMsg{label + 1, target}));
        } else {
          noisy.outboxes[id].broadcast(
              core::encode_message(core::PathMsg{label + 1, target, node}));
        }
        if (inputs.below(8) == 0) {
          continue;  // announces nothing this round
        }
        if (path_round) {
          noisy.announce(id, core::PathMsg{label, node, target});
          clean.announce(id, core::PathMsg{label, node, target});
        } else {
          noisy.announce(id, core::PositionMsg{label, node});
          clean.announce(id, core::PositionMsg{label, node});
        }
      }
      sim::CrashPlan from_wire;
      sim::CrashPlan from_record;
      wire.schedule(noisy.wire_view(r), from_wire);
      typed.schedule(clean.typed_view(r), from_record);
      EXPECT_FALSE(from_record.empty());
      expect_same_plan(from_record, from_wire,
                       "mode " + std::to_string(static_cast<int>(mode)) +
                           ", trial " + std::to_string(trial));
    }
  }
}

}  // namespace
}  // namespace bil
