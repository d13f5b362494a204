// Byzantine fault model: wire-corruption adversaries against the validation
// layer.
//
// Coverage map:
//   * f = 0 invariance — every Byzantine strategy with a zero budget is
//     bit-identical to a crash-free run (the tolerance machinery is dead
//     code until a fault actually fires);
//   * honest safety — under bit-flips, consistent lies, phantom inits and
//     equivocation at f <= n/8, every honest process gets a unique tight
//     name (run_renaming re-validates every run; these tests assert the
//     runs complete, which implies validation passed);
//   * the engine's quarantine backstop — a protocol that lets WireError
//     escape on_receive is quarantined, counted, and failed by
//     validate_renaming instead of aborting the run;
//   * determinism — byte-identical reruns, thread-width invariance;
//   * the leaf-conflict pass in isolation — handcrafted, engine-less inboxes
//     pin eviction and the unstick rule ball by ball.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "core/balls_into_leaves.h"
#include "core/byzantine_adversary.h"
#include "core/messages.h"
#include "core/seeds.h"
#include "harness/runner.h"
#include "sim/engine.h"
#include "tree/shape.h"
#include "util/contract.h"
#include "util/rng.h"
#include "wire/wire.h"

namespace bil {
namespace {

using harness::AdversaryKind;
using harness::AdversarySpec;
using harness::Algorithm;
using harness::RunConfig;

/// Everything observable about a run that must not depend on thread width,
/// rerun count, or the presence of a zero-budget adversary.
struct Fingerprint {
  bool completed = false;
  std::uint32_t rounds = 0;
  sim::Metrics metrics;
  std::vector<std::tuple<bool, std::uint64_t, sim::RoundNumber>> decisions;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const harness::RunSummary& summary) {
  Fingerprint fp;
  fp.completed = summary.completed;
  fp.rounds = summary.total_rounds;
  fp.metrics = summary.raw.metrics;
  for (const sim::ProcessOutcome& outcome : summary.raw.outcomes) {
    fp.decisions.emplace_back(outcome.decided, outcome.name,
                              outcome.decide_round);
  }
  return fp;
}

RunConfig base_config(std::uint32_t n, std::uint64_t seed) {
  RunConfig config;
  config.n = n;
  config.seed = seed;
  return config;
}

const AdversaryKind kByzantineKinds[] = {AdversaryKind::kByzantineBitFlip,
                                         AdversaryKind::kByzantineLiar,
                                         AdversaryKind::kByzantineEquivocator};

// -- f = 0 invariance --------------------------------------------------------

TEST(Byzantine, ZeroBudgetIsBitIdenticalToCrashFree) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RunConfig baseline = base_config(32, seed);
    const Fingerprint expected = fingerprint(harness::run_renaming(baseline));
    for (const AdversaryKind kind : kByzantineKinds) {
      RunConfig config = base_config(32, seed);
      config.adversary = AdversarySpec{.kind = kind, .byzantine = 0};
      EXPECT_EQ(fingerprint(harness::run_renaming(config)), expected)
          << "kind=" << to_string(kind) << " seed=" << seed;
    }
  }
}

// -- Honest safety under each strategy ---------------------------------------

TEST(Byzantine, BitFlipGarbledTrafficLooksLikeSilence) {
  // Garbled payloads fail to decode; BiL's decode path swallows them (the
  // sender merely looks silent), so the engine's malformed-escape counter
  // must stay at zero and nobody gets quarantined.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunConfig config = base_config(64, seed);
    config.adversary =
        AdversarySpec{.kind = AdversaryKind::kByzantineBitFlip, .byzantine = 8};
    const auto summary = harness::run_renaming(config);
    EXPECT_TRUE(summary.completed) << "seed=" << seed;
    EXPECT_EQ(summary.raw.metrics.malformed_payloads, 0u) << "seed=" << seed;
    for (const sim::ProcessOutcome& outcome : summary.raw.outcomes) {
      EXPECT_FALSE(outcome.quarantined);
    }
  }
}

TEST(Byzantine, ConsistentLiarHonestProcessesStillRename) {
  // The strongest undetectable lie: stable phantom leaf occupancy. Honest
  // balls route around the squatted leaves; run_renaming validates unique
  // tight names for every honest process on each run.
  for (const Algorithm algorithm :
       {Algorithm::kBallsIntoLeaves, Algorithm::kEarlyTerminating}) {
    for (const std::uint32_t f : {1u, 8u}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        RunConfig config = base_config(64, seed);
        config.algorithm = algorithm;
        config.adversary = AdversarySpec{.kind = AdversaryKind::kByzantineLiar,
                                         .byzantine = f};
        const auto summary = harness::run_renaming(config);
        EXPECT_TRUE(summary.completed)
            << to_string(algorithm) << " f=" << f << " seed=" << seed;
      }
    }
  }
}

TEST(Byzantine, EquivocatorWithRoundBudget) {
  // Contradictory per-recipient claims manufacture honest-honest leaf
  // conflicts; the eviction rule must resolve them identically in every
  // view. The firing budget bounds how long honest termination can be
  // postponed (see core/byzantine_adversary.h).
  for (const Algorithm algorithm :
       {Algorithm::kBallsIntoLeaves, Algorithm::kEarlyTerminating}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      RunConfig config = base_config(64, seed);
      config.algorithm = algorithm;
      config.adversary =
          AdversarySpec{.kind = AdversaryKind::kByzantineEquivocator,
                        .byzantine = 8,
                        .byzantine_rounds = 6};
      const auto summary = harness::run_renaming(config);
      EXPECT_TRUE(summary.completed)
          << to_string(algorithm) << " seed=" << seed;
    }
  }
}

TEST(Byzantine, LargeScaleAtNOverEight) {
  // The acceptance bar: n = 256, f = n/8 = 32, both liar modes.
  for (const AdversaryKind kind : {AdversaryKind::kByzantineLiar,
                                   AdversaryKind::kByzantineEquivocator}) {
    RunConfig config = base_config(256, 42);
    config.adversary = AdversarySpec{
        .kind = kind,
        .byzantine = 32,
        .byzantine_rounds =
            kind == AdversaryKind::kByzantineEquivocator ? 6u : 0u};
    const auto summary = harness::run_renaming(config);
    EXPECT_TRUE(summary.completed) << to_string(kind);
  }
}

TEST(Byzantine, PhantomInitsAreCaughtByTheBindingRule) {
  // A forged second init label per faulty sender; every honest process must
  // suspect the sender outright and rename as if it had crashed at birth.
  // phantom_inits is not exposed through the harness spec, so assemble the
  // run by hand the way run_renaming would.
  constexpr std::uint32_t kN = 16;
  constexpr std::uint32_t kF = 2;
  const auto shape = tree::TreeShape::make(kN);
  std::vector<std::unique_ptr<sim::ProcessBase>> processes;
  for (sim::ProcessId id = 0; id < kN; ++id) {
    processes.push_back(std::make_unique<core::BallsIntoLeavesProcess>(
        core::BallsIntoLeavesProcess::Options{
            .num_names = kN,
            .label = id,
            .seed = derive_seed(7, core::kSeedDomainProcess, id),
            .shape = shape,
            .tolerate_byzantine = true}));
  }
  auto adversary = std::make_unique<core::ByzantineLiarAdversary>(
      shape,
      core::ByzantineLiarAdversary::Options{.byzantine = kF,
                                            .phantom_inits = true},
      derive_seed(7, core::kSeedDomainByzantine, 0));
  sim::Engine engine(
      sim::EngineConfig{.num_processes = kN, .max_byzantine = kF},
      std::move(processes), std::move(adversary));
  const sim::RunResult result = engine.run();
  EXPECT_TRUE(result.completed);
  sim::validate_renaming(result, kN);
  EXPECT_EQ(engine.byzantine_count(), kF);
}

// -- Determinism -------------------------------------------------------------

TEST(Byzantine, RunsAreDeterministicAndThreadWidthInvariant) {
  for (const AdversaryKind kind : kByzantineKinds) {
    RunConfig config = base_config(64, 3);
    config.adversary = AdversarySpec{
        .kind = kind,
        .byzantine = 8,
        .byzantine_rounds =
            kind == AdversaryKind::kByzantineEquivocator ? 6u : 0u};
    const Fingerprint serial = fingerprint(harness::run_renaming(config));
    EXPECT_EQ(fingerprint(harness::run_renaming(config)), serial)
        << "rerun diverged, kind=" << to_string(kind);
    config.engine_threads = 0;  // one per hardware thread
    EXPECT_EQ(fingerprint(harness::run_renaming(config)), serial)
        << "thread width changed the run, kind=" << to_string(kind);
  }
}

// -- Harness guard rails -----------------------------------------------------

TEST(Byzantine, EagerLeafTerminationIsRejected) {
  RunConfig config = base_config(32, 1);
  config.termination = core::TerminationMode::kEagerLeaf;
  config.adversary =
      AdversarySpec{.kind = AdversaryKind::kByzantineLiar, .byzantine = 1};
  EXPECT_THROW((void)harness::run_renaming(config), ContractViolation);
}

TEST(Byzantine, BaselinesCannotRunUnderAByzantineBudget) {
  RunConfig config = base_config(32, 1);
  config.algorithm = Algorithm::kGossip;
  config.adversary =
      AdversarySpec{.kind = AdversaryKind::kByzantineBitFlip, .byzantine = 1};
  EXPECT_THROW((void)harness::run_renaming(config), ContractViolation);
}

// -- Engine quarantine backstop ----------------------------------------------

/// A process whose on_receive lets WireError escape (simulating a protocol
/// with no validation layer hitting undecodable bytes). The honest variant
/// decides a preassigned name after one exchange.
class FragileProcess final : public sim::ProcessBase {
 public:
  FragileProcess(bool fragile, std::uint64_t name)
      : fragile_(fragile), name_(name) {}

  void on_send(sim::RoundNumber /*round*/, sim::Outbox& out) override {
    out.broadcast(wire::Buffer{std::byte{1}});
  }

  void on_receive(sim::RoundNumber round,
                  std::span<const sim::Envelope> /*inbox*/) override {
    if (fragile_) {
      throw wire::WireError("undecodable payload reached the protocol");
    }
    if (round >= 1) {
      decide(name_);
      halt();
    }
  }

 private:
  bool fragile_;
  std::uint64_t name_;
};

// -- The leaf-conflict pass, engine-less ---------------------------------------

/// One tolerant BiL process (sender 0, label 100) over a 4-leaf tree, fed
/// handcrafted inboxes: init from senders 0..3 (label 100 + sender), a path
/// round in which every ball stays at the root, then a position round in
/// which sender i claims `positions[i]`. resolve_leaf_conflicts runs at the
/// end of that round.
std::unique_ptr<core::BallsIntoLeavesProcess> after_position_round(
    const std::shared_ptr<const tree::TreeShape>& shape,
    const std::vector<tree::NodeId>& positions) {
  auto process = std::make_unique<core::BallsIntoLeavesProcess>(
      core::BallsIntoLeavesProcess::Options{.num_names = 4,
                                            .label = 100,
                                            .seed = 1,
                                            .shape = shape,
                                            .tolerate_byzantine = true});
  const auto deliver = [&](sim::RoundNumber round, auto make_message) {
    std::vector<wire::Buffer> payloads;
    for (sim::ProcessId sender = 0; sender < positions.size(); ++sender) {
      payloads.push_back(core::encode_message(make_message(sender)));
    }
    std::vector<sim::Envelope> inbox;
    for (sim::ProcessId sender = 0; sender < positions.size(); ++sender) {
      inbox.push_back(sim::Envelope{sender, &payloads[sender], nullptr});
    }
    process->on_receive(round, inbox);
  };
  const tree::NodeId root = tree::TreeShape::root();
  deliver(0, [](sim::ProcessId sender) -> core::Message {
    return core::InitMsg{100 + sender};
  });
  deliver(1, [&](sim::ProcessId sender) -> core::Message {
    return core::PathMsg{100 + sender, root, root};
  });
  deliver(2, [&](sim::ProcessId sender) -> core::Message {
    return core::PositionMsg{100 + sender, positions[sender]};
  });
  return process;
}

TEST(LeafConflicts, StrandedBallUnderFullSubtreeRestartsAtRoot) {
  const auto shape = tree::TreeShape::make(4);
  const tree::NodeId inner = shape->left(tree::TreeShape::root());
  ASSERT_EQ(shape->leaf_count(inner), 2u);
  // Ball 102 is parked at `inner`, and both leaves below it are taken.
  const auto process = after_position_round(
      shape, {shape->leaf_at(0), shape->leaf_at(1), inner, shape->leaf_at(2)});
  EXPECT_EQ(process->view().current(102), tree::TreeShape::root());
  EXPECT_EQ(process->view().current(100), shape->leaf_at(0));
  EXPECT_EQ(process->view().current(101), shape->leaf_at(1));
  EXPECT_EQ(process->evictions(), 1u);
}

TEST(LeafConflicts, BallWithAFreeLeafBelowStays) {
  const auto shape = tree::TreeShape::make(4);
  const tree::NodeId inner = shape->left(tree::TreeShape::root());
  // Same ball at `inner`, but leaf 1 below it is free.
  const auto process = after_position_round(
      shape, {shape->leaf_at(0), shape->leaf_at(2), inner, shape->leaf_at(3)});
  EXPECT_EQ(process->view().current(102), inner);
  EXPECT_EQ(process->evictions(), 0u);
}

TEST(LeafConflicts, DoublyClaimedLeafKeepsTheLowestLabel) {
  const auto shape = tree::TreeShape::make(4);
  // Balls 101 and 103 both claim leaf 2; 103 restarts at the root.
  const auto process = after_position_round(
      shape, {shape->leaf_at(0), shape->leaf_at(2), shape->leaf_at(1),
              shape->leaf_at(2)});
  EXPECT_EQ(process->view().current(101), shape->leaf_at(2));
  EXPECT_EQ(process->view().current(103), tree::TreeShape::root());
  EXPECT_EQ(process->view().current(102), shape->leaf_at(1));
  EXPECT_EQ(process->evictions(), 1u);
}

TEST(LeafConflicts, EvictionAndUnstickCountTogether) {
  const auto shape = tree::TreeShape::make(4);
  const tree::NodeId inner = shape->right(tree::TreeShape::root());
  // 100 and 101 collide on leaf 2 (101 evicted); 102 holds leaf 3, so the
  // right subtree is full under 103, which restarts too.
  const auto process = after_position_round(
      shape, {shape->leaf_at(2), shape->leaf_at(2), shape->leaf_at(3), inner});
  EXPECT_EQ(process->view().current(100), shape->leaf_at(2));
  EXPECT_EQ(process->view().current(101), tree::TreeShape::root());
  EXPECT_EQ(process->view().current(103), tree::TreeShape::root());
  EXPECT_EQ(process->evictions(), 2u);
}

TEST(Byzantine, WireErrorEscapingOnReceiveQuarantinesTheProcess) {
  std::vector<std::unique_ptr<sim::ProcessBase>> processes;
  processes.push_back(std::make_unique<FragileProcess>(true, 1));
  processes.push_back(std::make_unique<FragileProcess>(false, 2));
  processes.push_back(std::make_unique<FragileProcess>(false, 3));
  sim::Engine engine(sim::EngineConfig{.num_processes = 3},
                     std::move(processes), nullptr);
  const sim::RunResult result = engine.run();

  // The quarantine isolates the fault: the run still completes and the
  // escape is counted, instead of the exception tearing down the engine.
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.outcomes[0].quarantined);
  EXPECT_EQ(result.outcomes[0].quarantine_round, 0u);
  EXPECT_FALSE(result.outcomes[0].decided);
  EXPECT_EQ(result.metrics.malformed_payloads, 1u);
  EXPECT_TRUE(result.outcomes[1].decided);
  EXPECT_TRUE(result.outcomes[2].decided);

  // A quarantined *honest* process is a validation failure, never a pass:
  // renaming promised it a name and it got none.
  EXPECT_THROW(sim::validate_renaming(result, 3), ContractViolation);
}

}  // namespace
}  // namespace bil
