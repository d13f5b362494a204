// Unit tests for the Balls-into-Leaves process (Algorithm 1): message
// codecs, path policies, fault-free execution, termination modes, and the
// protocol's phase structure.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "core/balls_into_leaves.h"
#include "core/messages.h"
#include "core/policy.h"
#include "core/seeds.h"
#include "harness/runner.h"
#include "sim/engine.h"
#include "tree/shape.h"
#include "util/rng.h"

namespace bil {
namespace {

using core::BallsIntoLeavesProcess;
using core::PathPolicy;
using core::TerminationMode;

// ---- Message codec ---------------------------------------------------------

TEST(Messages, InitRoundTrip) {
  const core::Message original = core::InitMsg{.label = 0xDEADBEEFCAFEULL};
  const wire::Buffer encoded = core::encode_message(original);
  const core::Message decoded = core::decode_message(encoded);
  ASSERT_TRUE(std::holds_alternative<core::InitMsg>(decoded));
  EXPECT_EQ(std::get<core::InitMsg>(decoded), std::get<core::InitMsg>(original));
}

TEST(Messages, PathRoundTrip) {
  const core::Message original =
      core::PathMsg{.label = 42, .start = 3, .target = 11};
  const core::Message decoded =
      core::decode_message(core::encode_message(original));
  ASSERT_TRUE(std::holds_alternative<core::PathMsg>(decoded));
  EXPECT_EQ(std::get<core::PathMsg>(decoded), std::get<core::PathMsg>(original));
}

TEST(Messages, PositionRoundTrip) {
  const core::Message original = core::PositionMsg{.label = 7, .node = 12};
  const core::Message decoded =
      core::decode_message(core::encode_message(original));
  ASSERT_TRUE(std::holds_alternative<core::PositionMsg>(decoded));
  EXPECT_EQ(std::get<core::PositionMsg>(decoded),
            std::get<core::PositionMsg>(original));
}

TEST(Messages, RejectsUnknownType) {
  wire::Writer writer;
  writer.u8(99);
  const wire::Buffer buffer = std::move(writer).take();
  EXPECT_THROW((void)core::decode_message(buffer), wire::WireError);
}

TEST(Messages, RejectsTrailingBytes) {
  wire::Buffer buffer = core::encode_message(core::InitMsg{.label = 1});
  buffer.push_back(std::byte{0});
  EXPECT_THROW((void)core::decode_message(buffer), wire::WireError);
}

TEST(Messages, PathMessageIsCompact) {
  // The paper's candidate path is encoded by its endpoints; the message must
  // stay small even for large trees (E7 relies on this).
  const wire::Buffer encoded = core::encode_message(
      core::PathMsg{.label = 1 << 20, .start = 1 << 18, .target = 1 << 19});
  EXPECT_LE(encoded.size(), 12u);
}

// encoded_size seeds encode_message's Writer reserve; if it ever drifts
// from the encoder, an under-estimate silently reintroduces the mid-encode
// reallocation it exists to remove. Pin exactness across small and
// varint-boundary-sized fields for every variant alternative.
TEST(Messages, EncodedSizePredictsEncodedLength) {
  const core::Message probes[] = {
      core::InitMsg{.label = 0},
      core::InitMsg{.label = 0xDEADBEEFCAFEULL},
      core::PathMsg{.label = 42, .start = 3, .target = 11},
      core::PathMsg{.label = std::numeric_limits<std::uint64_t>::max(),
                    .start = 1 << 18,
                    .target = (1 << 19) + 127},
      core::PositionMsg{.label = 7, .node = 12},
      core::PositionMsg{.label = 1 << 28, .node = 1 << 14},
  };
  for (const core::Message& message : probes) {
    EXPECT_EQ(core::encoded_size(message),
              core::encode_message(message).size());
  }
}

// encode_message_into re-encodes into a recycled payload slot. Its bytes
// must match both encode_message and an independent reference encoding
// (type tag + LEB128 varints) at every varint length boundary, including
// when the target buffer still holds a longer previous payload.
wire::Buffer reference_encoding(const core::Message& message) {
  wire::Writer writer;
  if (const auto* init = std::get_if<core::InitMsg>(&message)) {
    writer.u8(1);
    writer.varint(init->label);
  } else if (const auto* path = std::get_if<core::PathMsg>(&message)) {
    writer.u8(2);
    writer.varint(path->label);
    writer.varint(path->start);
    writer.varint(path->target);
  } else {
    const auto& position = std::get<core::PositionMsg>(message);
    writer.u8(3);
    writer.varint(position.label);
    writer.varint(position.node);
  }
  return std::move(writer).take();
}

TEST(Messages, EncodeIntoMatchesEncodeAtVarintBoundaries) {
  const std::uint32_t nodes[] = {0,     127,   128,
                                 16383, 16384,
                                 std::numeric_limits<std::uint32_t>::max()};
  const std::uint64_t labels[] = {0,
                                  127,
                                  128,
                                  16384,
                                  std::uint64_t{1} << 35,
                                  (std::uint64_t{1} << 63) - 1,
                                  std::numeric_limits<std::uint64_t>::max()};
  std::vector<core::Message> probes;
  for (const std::uint64_t label : labels) {
    probes.push_back(core::InitMsg{.label = label});
    for (const std::uint32_t a : nodes) {
      probes.push_back(core::PositionMsg{.label = label, .node = a});
      for (const std::uint32_t b : nodes) {
        probes.push_back(
            core::PathMsg{.label = label, .start = a, .target = b});
      }
    }
  }
  // A slot that held the longest possible payload last round.
  const wire::Buffer longest = core::encode_message(core::PathMsg{
      .label = std::numeric_limits<std::uint64_t>::max(),
      .start = std::numeric_limits<std::uint32_t>::max(),
      .target = std::numeric_limits<std::uint32_t>::max()});
  for (const core::Message& message : probes) {
    const wire::Buffer expected = reference_encoding(message);
    EXPECT_EQ(core::encode_message(message), expected);
    wire::Buffer recycled = longest;
    core::encode_message_into(message, recycled);
    ASSERT_EQ(recycled, expected);
    EXPECT_EQ(core::decode_message(recycled), message);
    wire::Buffer fresh;
    core::encode_message_into(message, fresh);
    EXPECT_EQ(fresh, expected);
  }
}

// ---- Fault-free end-to-end runs -------------------------------------------

harness::RunSummary run_simple(std::uint32_t n, std::uint64_t seed,
                               harness::Algorithm algorithm =
                                   harness::Algorithm::kBallsIntoLeaves) {
  harness::RunConfig config;
  config.algorithm = algorithm;
  config.n = n;
  config.seed = seed;
  return harness::run_renaming(config);
}

TEST(BallsIntoLeaves, SingleBallDecidesImmediately) {
  const harness::RunSummary summary = run_simple(1, 7);
  EXPECT_TRUE(summary.completed);
  EXPECT_EQ(summary.raw.outcomes[0].name, 1u);
  // Init round + one two-round phase.
  EXPECT_EQ(summary.rounds, 3u);
}

TEST(BallsIntoLeaves, TwoBallsSplitTheLeaves) {
  const harness::RunSummary summary = run_simple(2, 11);
  std::set<std::uint64_t> names;
  for (const auto& outcome : summary.raw.outcomes) {
    names.insert(outcome.name);
  }
  EXPECT_EQ(names, (std::set<std::uint64_t>{1, 2}));
}

TEST(BallsIntoLeaves, FaultFreeRunsAreValidForManySizes) {
  for (std::uint32_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 27u, 32u,
                          64u, 100u}) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      const harness::RunSummary summary = run_simple(n, seed);
      EXPECT_TRUE(summary.completed) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(BallsIntoLeaves, RoundCountIsOddAndSmallFaultFree) {
  // rounds = 1 (init) + 2 * phases; fault-free phase counts should be tiny.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const harness::RunSummary summary = run_simple(256, seed);
    EXPECT_EQ(summary.rounds % 2, 1u);
    EXPECT_LE(summary.rounds, 1 + 2 * 12u) << "seed=" << seed;
  }
}

TEST(BallsIntoLeaves, DeterministicGivenSeed) {
  const harness::RunSummary a = run_simple(64, 1234);
  const harness::RunSummary b = run_simple(64, 1234);
  ASSERT_EQ(a.raw.outcomes.size(), b.raw.outcomes.size());
  for (std::size_t i = 0; i < a.raw.outcomes.size(); ++i) {
    EXPECT_EQ(a.raw.outcomes[i].name, b.raw.outcomes[i].name) << i;
  }
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(BallsIntoLeaves, DifferentSeedsUsuallyDiffer) {
  const harness::RunSummary a = run_simple(64, 1);
  const harness::RunSummary b = run_simple(64, 2);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.raw.outcomes.size(); ++i) {
    any_difference |= a.raw.outcomes[i].name != b.raw.outcomes[i].name;
  }
  EXPECT_TRUE(any_difference);
}

TEST(BallsIntoLeaves, EagerLeafModeMatchesProperties) {
  for (std::uint32_t n : {1u, 2u, 5u, 16u, 33u, 64u}) {
    harness::RunConfig config;
    config.n = n;
    config.seed = 99 + n;
    config.termination = core::TerminationMode::kEagerLeaf;
    const harness::RunSummary summary = harness::run_renaming(config);
    EXPECT_TRUE(summary.completed) << "n=" << n;
  }
}

/// Mean decide round over a run's correct (non-crashed) processes.
double mean_decide_round(const harness::RunSummary& summary) {
  double total = 0;
  std::uint32_t correct = 0;
  for (const sim::ProcessOutcome& outcome : summary.raw.outcomes) {
    if (!outcome.crashed) {
      total += outcome.decide_round;
      ++correct;
    }
  }
  return total / correct;
}

TEST(BallsIntoLeaves, EagerNeverSlowerThanGlobalFaultFree) {
  // Eager mode also publishes most names early: a ball's name is final once
  // it announces its leaf, so the mean decide round drops strictly below
  // global mode's, where everyone decides when the last ball settles.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    harness::RunConfig config;
    config.n = 128;
    config.seed = seed;
    config.termination = core::TerminationMode::kGlobal;
    const auto global_mode = harness::run_renaming(config);
    config.termination = core::TerminationMode::kEagerLeaf;
    const auto eager_mode = harness::run_renaming(config);
    EXPECT_LE(eager_mode.rounds, global_mode.rounds) << "seed=" << seed;
    EXPECT_LT(mean_decide_round(eager_mode), mean_decide_round(global_mode))
        << "seed=" << seed;
  }
}

// ---- Deterministic policies ------------------------------------------------

TEST(RankDescent, FaultFreeFinishesInOnePhase) {
  // With no failures every ball targets a distinct leaf by rank, so the
  // first phase places everyone: 1 init round + 2 phase rounds.
  for (std::uint32_t n : {2u, 8u, 64u, 257u}) {
    const harness::RunSummary summary =
        run_simple(n, 5, harness::Algorithm::kRankDescent);
    EXPECT_EQ(summary.rounds, 3u) << "n=" << n;
  }
}

TEST(RankDescent, NamesAreRankOrderedFaultFree) {
  // Rank-indexed descent assigns names order-preservingly when nothing
  // fails: ball with i-th smallest label gets name i.
  const harness::RunSummary summary =
      run_simple(32, 17, harness::Algorithm::kRankDescent);
  for (std::size_t i = 0; i < summary.raw.outcomes.size(); ++i) {
    EXPECT_EQ(summary.raw.outcomes[i].name, i + 1);
  }
}

TEST(EarlyTerminating, FaultFreeConstantRounds) {
  // Theorem 3: O(1) rounds deterministically in failure-free executions.
  for (std::uint32_t n : {2u, 16u, 128u, 512u}) {
    const harness::RunSummary summary =
        run_simple(n, 21, harness::Algorithm::kEarlyTerminating);
    EXPECT_EQ(summary.rounds, 3u) << "n=" << n;
  }
}

TEST(Halving, TakesExactlyHeightPhasesFaultFree) {
  for (std::uint32_t n : {2u, 4u, 16u, 64u}) {
    const harness::RunSummary summary =
        run_simple(n, 3, harness::Algorithm::kHalving);
    const auto height = tree::TreeShape(n).height();
    EXPECT_EQ(summary.rounds, 1 + 2 * height) << "n=" << n;
  }
}

TEST(Halving, RaggedSizesStillRename) {
  for (std::uint32_t n : {3u, 5u, 6u, 7u, 9u, 100u, 129u}) {
    const harness::RunSummary summary =
        run_simple(n, 31, harness::Algorithm::kHalving);
    EXPECT_TRUE(summary.completed) << "n=" << n;
  }
}

// ---- Policy helpers --------------------------------------------------------

TEST(Policy, SampleWeightedLeafRespectsFullSubtrees) {
  auto shape = tree::TreeShape::make(4);
  tree::LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0, 1, 2});
  // Park ball 0 and 1 on the two left leaves; the left subtree is full.
  const tree::NodeId left = shape->left(tree::TreeShape::root());
  view.reposition(0, shape->left(left));
  view.reposition(1, shape->right(left));
  Rng rng(42);
  for (int i = 0; i < 64; ++i) {
    const tree::NodeId leaf =
        core::sample_weighted_leaf(view, tree::TreeShape::root(), rng);
    EXPECT_GE(shape->leaf_rank(leaf), 2u) << "sampled into a full subtree";
  }
}

TEST(Policy, RankedSlackLeafEnumeratesFreeSlots) {
  auto shape = tree::TreeShape::make(8);
  tree::LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0});
  view.reposition(0, shape->leaf_at(2));
  // Free slots, left to right: leaves 0,1,3,4,5,6,7.
  const std::vector<std::uint32_t> expected{0, 1, 3, 4, 5, 6, 7};
  for (std::uint32_t rank = 0; rank < expected.size(); ++rank) {
    const tree::NodeId leaf =
        core::ranked_slack_leaf(view, tree::TreeShape::root(), rank);
    EXPECT_EQ(shape->leaf_rank(leaf), expected[rank]) << "rank=" << rank;
  }
}

TEST(Policy, RankedSlackClampsOutOfRangeRanks) {
  auto shape = tree::TreeShape::make(4);
  tree::LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0});
  const tree::NodeId leaf =
      core::ranked_slack_leaf(view, tree::TreeShape::root(), 1000);
  EXPECT_TRUE(shape->is_leaf(leaf));
  EXPECT_EQ(shape->leaf_rank(leaf), 3u);  // clamped to the last free slot
}

TEST(Policy, HalvingChildSplitsProportionally) {
  auto shape = tree::TreeShape::make(8);
  tree::LocalTreeView view(shape);
  std::vector<sim::Label> labels{0, 1, 2, 3, 4, 5, 6, 7};
  view.insert_all_at_root(labels);
  const tree::NodeId root = tree::TreeShape::root();
  // 8 balls, capacities 4/4: ranks 0..3 left, 4..7 right.
  for (std::uint32_t r = 0; r < 8; ++r) {
    const tree::NodeId child = core::halving_child(view, root, r, 8);
    EXPECT_EQ(child, r < 4 ? shape->left(root) : shape->right(root))
        << "rank=" << r;
  }
}

TEST(Policy, RankAmongNodeMates) {
  auto shape = tree::TreeShape::make(4);
  tree::LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{10, 20, 30});
  view.reposition(20, shape->left(tree::TreeShape::root()));
  EXPECT_EQ(core::rank_among_node_mates(view, 10), 0u);
  EXPECT_EQ(core::rank_among_node_mates(view, 30), 1u);  // 20 moved away
  EXPECT_EQ(core::rank_among_node_mates(view, 20), 0u);
}

// ---- Phase instrumentation --------------------------------------------------

TEST(Observer, SnapshotsCoverEveryPhase) {
  harness::RunConfig config;
  config.n = 64;
  config.seed = 8;
  config.observe = true;
  const harness::RunSummary summary = harness::run_renaming(config);
  ASSERT_FALSE(summary.phases.empty());
  for (std::size_t i = 0; i < summary.phases.size(); ++i) {
    EXPECT_EQ(summary.phases[i].phase, i + 1);
  }
  // Final phase: everything at leaves.
  EXPECT_EQ(summary.phases.back().balls_inner, 0u);
  EXPECT_EQ(summary.phases.back().balls_total, 64u);
  // First phase of a 64-ball run leaves contention strictly below n.
  EXPECT_LT(summary.phases.front().bmax, 64u);
}

TEST(Observer, BmaxDecreasesOverPhases) {
  harness::RunConfig config;
  config.n = 512;
  config.seed = 3;
  config.observe = true;
  const harness::RunSummary summary = harness::run_renaming(config);
  ASSERT_GE(summary.phases.size(), 2u);
  EXPECT_LT(summary.phases.back().bmax,
            summary.phases.front().bmax + 1);
}

}  // namespace
}  // namespace bil
