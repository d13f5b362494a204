// Tests for the non-tree baselines: gossip (flooding) renaming, naive
// balls-into-bins renaming, and the Moir–Anderson splitter network.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <set>
#include <vector>

#include "baselines/gossip.h"
#include "baselines/splitter_net.h"
#include "baselines/two_choice.h"
#include "harness/runner.h"
#include "sim/adversaries.h"
#include "util/contract.h"
#include "wire/wire.h"

namespace bil {
namespace {

using harness::AdversaryKind;
using harness::AdversarySpec;
using harness::RunConfig;

// ---- Gossip -----------------------------------------------------------------

TEST(Gossip, FaultFreeNamesAreRanks) {
  RunConfig config;
  config.algorithm = harness::Algorithm::kGossip;
  config.n = 16;
  config.seed = 1;
  config.label_offset = 100;
  config.label_stride = 3;
  const auto summary = harness::run_renaming(config);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(summary.raw.outcomes[i].name, i + 1);
  }
}

TEST(Gossip, WaitFreeRunsExactlyNRounds) {
  // Default t = n-1: rounds 0..n-1 — exactly n rounds, regardless of
  // failures. This is the linear cost the paper contrasts against.
  for (std::uint32_t n : {4u, 16u, 64u}) {
    RunConfig config;
    config.algorithm = harness::Algorithm::kGossip;
    config.n = n;
    config.seed = 2;
    const auto summary = harness::run_renaming(config);
    EXPECT_EQ(summary.rounds, n) << "n=" << n;
  }
}

TEST(Gossip, ConfigurableResilienceShortensRuns) {
  RunConfig config;
  config.algorithm = harness::Algorithm::kGossip;
  config.n = 64;
  config.seed = 3;
  config.gossip_t = 5;
  const auto summary = harness::run_renaming(config);
  EXPECT_EQ(summary.rounds, 6u);  // t+1
}

TEST(Gossip, SurvivesCrashesWithinBudget) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunConfig config;
    config.algorithm = harness::Algorithm::kGossip;
    config.n = 24;
    config.seed = seed;
    config.gossip_t = 12;
    config.adversary = AdversarySpec{.kind = AdversaryKind::kOblivious,
                                     .crashes = 12,
                                     .horizon = 12,
                                     .subset = sim::SubsetPolicy::kRandomHalf};
    const auto summary = harness::run_renaming(config);
    EXPECT_TRUE(summary.completed) << "seed=" << seed;
  }
}

TEST(Gossip, SurvivesAdaptiveChainedCrashes) {
  // One crash per round with partial delivery — the classic hard case for
  // flooding (a value can hide in a chain of dying processes). The t+1
  // round count must still suffice.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunConfig config;
    config.algorithm = harness::Algorithm::kGossip;
    config.n = 16;
    config.seed = seed;
    config.gossip_t = 15;
    config.adversary = AdversarySpec{.kind = AdversaryKind::kEager,
                                     .crashes = 15,
                                     .when = 0,
                                     .per_round = 1,
                                     .subset = sim::SubsetPolicy::kRandomHalf};
    const auto summary = harness::run_renaming(config);
    EXPECT_TRUE(summary.completed) << "seed=" << seed;
  }
}

/// One handcrafted gossip payload and what a decoder must make of it.
struct GossipPayload {
  wire::Buffer bytes;
  bool well_formed = true;
  std::vector<sim::Label> labels;  // as encoded, in wire order
};

/// Draws a payload of one of six kinds: sorted and duplicate-free (what an
/// honest sender encodes), unsorted with duplicates, an empty sequence,
/// truncated, well-formed with a trailing byte, or no bytes at all. The
/// last three are malformed: the decoder throws WireError, and the labels
/// a malformed payload's valid prefix carries must not be heard.
GossipPayload random_gossip_payload(std::mt19937_64& rng) {
  GossipPayload payload;
  const auto kind = rng() % 6;
  if (kind != 2) {
    const auto count = 1 + rng() % 6;
    for (std::uint64_t i = 0; i < count; ++i) {
      payload.labels.push_back(rng() % 40);  // small range: many repeats
    }
    if (kind == 0) {
      std::sort(payload.labels.begin(), payload.labels.end());
      payload.labels.erase(
          std::unique(payload.labels.begin(), payload.labels.end()),
          payload.labels.end());
    }
  }
  wire::Writer writer;
  writer.seq(payload.labels,
             [](wire::Writer& w, sim::Label label) { w.varint(label); });
  payload.bytes = std::move(writer).take();
  if (kind == 3) {
    payload.bytes.pop_back();  // the count now exceeds what remains
    payload.well_formed = false;
  } else if (kind == 4) {
    payload.bytes.push_back(std::byte{0});
    payload.well_formed = false;
  } else if (kind == 5) {
    payload.bytes.clear();
    payload.well_formed = false;
  }
  return payload;
}

TEST(Gossip, InboxUnionMatchesASetModelOnHandcraftedInboxes) {
  // Engine-less envelopes (cache == nullptr) take round_index's scratch
  // path, which the golden grid reaches only through singleton delivery
  // classes. The model is the flooding rule itself: a std::set of every
  // label of every well-formed payload, the own label included; the
  // decision is the own label's rank in it.
  std::mt19937_64 rng(16);
  int malformed_seen = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const sim::Label own = rng() % 40;
    const auto rounds = static_cast<std::uint32_t>(1 + rng() % 4);
    baselines::GossipRenamingProcess process(
        {.label = own, .max_crashes = rounds - 1});
    std::set<sim::Label> model = {own};
    for (sim::RoundNumber round = 0; round < rounds; ++round) {
      std::vector<GossipPayload> payloads(rng() % 7);  // 0 = empty inbox
      for (GossipPayload& payload : payloads) {
        payload = random_gossip_payload(rng);
      }
      std::vector<sim::Envelope> inbox;
      std::set<sim::Label> heard;
      for (std::size_t sender = 0; sender < payloads.size(); ++sender) {
        inbox.push_back(sim::Envelope{static_cast<sim::ProcessId>(sender),
                                      &payloads[sender].bytes, nullptr});
        if (payloads[sender].well_formed) {
          heard.insert(payloads[sender].labels.begin(),
                       payloads[sender].labels.end());
        } else {
          ++malformed_seen;
        }
      }
      EXPECT_EQ(baselines::inbox_union(inbox),
                std::vector<sim::Label>(heard.begin(), heard.end()))
          << "trial " << trial << " round " << round;
      model.insert(heard.begin(), heard.end());
      ASSERT_FALSE(process.has_decided());
      process.on_receive(round, inbox);
    }
    ASSERT_TRUE(process.has_decided()) << "trial " << trial;
    EXPECT_TRUE(process.halted());
    const auto rank = static_cast<std::uint64_t>(
        std::distance(model.begin(), model.find(own)) + 1);
    EXPECT_EQ(process.decision(), rank) << "trial " << trial;
  }
  EXPECT_GT(malformed_seen, 100);  // the skip path was exercised
}

// ---- Naive balls-into-bins --------------------------------------------------

TEST(NaiveBins, FaultFreeCompletes) {
  for (std::uint32_t n : {1u, 2u, 8u, 64u, 256u}) {
    RunConfig config;
    config.algorithm = harness::Algorithm::kNaiveBins;
    config.n = n;
    config.seed = 7;
    const auto summary = harness::run_renaming(config);
    EXPECT_TRUE(summary.completed) << "n=" << n;
  }
}

TEST(NaiveBins, DeterministicForSeed) {
  RunConfig config;
  config.algorithm = harness::Algorithm::kNaiveBins;
  config.n = 64;
  config.seed = 5;
  const auto a = harness::run_renaming(config);
  const auto b = harness::run_renaming(config);
  EXPECT_EQ(a.rounds, b.rounds);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(a.raw.outcomes[i].name, b.raw.outcomes[i].name);
  }
}

TEST(NaiveBins, SurvivesCrashStrategies) {
  const std::vector<AdversarySpec> specs = {
      {.kind = AdversaryKind::kOblivious, .crashes = 10, .horizon = 6},
      {.kind = AdversaryKind::kBurst, .crashes = 10, .when = 0,
       .subset = sim::SubsetPolicy::kRandomHalf},
      {.kind = AdversaryKind::kBurst, .crashes = 10, .when = 1,
       .subset = sim::SubsetPolicy::kAlternating},
      {.kind = AdversaryKind::kEager, .crashes = 20, .when = 0,
       .per_round = 2, .subset = sim::SubsetPolicy::kRandomHalf},
  };
  for (const AdversarySpec& spec : specs) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      RunConfig config;
      config.algorithm = harness::Algorithm::kNaiveBins;
      config.n = 24;
      config.seed = seed;
      config.adversary = spec;
      const auto summary = harness::run_renaming(config);
      EXPECT_TRUE(summary.completed)
          << to_string(spec.kind) << " seed=" << seed;
    }
  }
}

// ---- Two-choice load balancing (the §1 non-solution) --------------------------

TEST(TwoChoice, AllocatesEveryBall) {
  baselines::TwoChoiceOptions options;
  options.balls = 500;
  options.bins = 500;
  options.seed = 3;
  const auto result = baselines::run_two_choice(options);
  ASSERT_EQ(result.bin_of.size(), 500u);
  for (std::uint32_t bin : result.bin_of) {
    EXPECT_LT(bin, 500u);
  }
  EXPECT_GE(result.max_load, 1u);
  EXPECT_LE(result.bins_used, 500u);
}

TEST(TwoChoice, DeterministicForSeed) {
  baselines::TwoChoiceOptions options;
  options.balls = 256;
  options.bins = 256;
  options.seed = 9;
  EXPECT_EQ(baselines::run_two_choice(options).bin_of,
            baselines::run_two_choice(options).bin_of);
}

TEST(TwoChoice, BalancesButDoesNotRename) {
  // The paper's §1 point, as an assertion: at n balls into n bins the
  // allocator keeps the max load tiny (that is its guarantee) yet leaves
  // a large fraction of balls sharing bins (so it is not a renaming).
  baselines::TwoChoiceOptions options;
  options.balls = 4096;
  options.bins = 4096;
  options.rounds = 4;
  options.seed = 7;
  const auto result = baselines::run_two_choice(options);
  EXPECT_LE(result.max_load, 8u);          // balanced...
  EXPECT_FALSE(result.is_one_to_one());    // ...but not one-to-one
  EXPECT_GT(result.colliding_balls, 100u);
}

TEST(TwoChoice, MoreChoicesFlattenTheLoad) {
  baselines::TwoChoiceOptions options;
  options.balls = 4096;
  options.bins = 4096;
  options.rounds = 1;
  options.seed = 5;
  options.choices = 1;
  const auto one_choice = baselines::run_two_choice(options);
  options.choices = 4;
  const auto four_choices = baselines::run_two_choice(options);
  EXPECT_LE(four_choices.max_load, one_choice.max_load);
}

TEST(TwoChoice, CollisionCountConsistency) {
  baselines::TwoChoiceOptions options;
  options.balls = 64;
  options.bins = 64;
  options.seed = 2;
  const auto result = baselines::run_two_choice(options);
  // colliding_balls must equal balls minus balls that sit alone.
  std::vector<std::uint32_t> load(64, 0);
  for (std::uint32_t bin : result.bin_of) {
    load[bin] += 1;
  }
  std::uint32_t sharing = 0;
  for (std::uint32_t bin : result.bin_of) {
    sharing += load[bin] > 1 ? 1u : 0u;
  }
  EXPECT_EQ(result.colliding_balls, sharing);
}

TEST(TwoChoice, RejectsDegenerateOptions) {
  baselines::TwoChoiceOptions options;
  EXPECT_THROW((void)baselines::run_two_choice(options), ContractViolation);
  options.balls = 1;
  options.bins = 1;
  options.rounds = 0;
  EXPECT_THROW((void)baselines::run_two_choice(options), ContractViolation);
}

TEST(NaiveBins, NeedsMoreCollisionPhasesThanBallsIntoLeaves) {
  // The motivating comparison: blind retry pays for collisions; capacity
  // steering does not. Naive-bins phases are one round and BiL phases are
  // two, so the apples-to-apples unit at moderate n is the number of
  // collision-resolution phases (the asymptotic round gap — log n vs
  // log log n — needs n far beyond engine scale and is measured by the
  // fast-sim benches instead).
  std::uint64_t bil_phases = 0;
  std::uint64_t bins_phases = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RunConfig config;
    config.n = 256;
    config.seed = seed;
    config.algorithm = harness::Algorithm::kBallsIntoLeaves;
    bil_phases += (harness::run_renaming(config).rounds - 1) / 2;
    config.algorithm = harness::Algorithm::kNaiveBins;
    bins_phases += harness::run_renaming(config).rounds;
  }
  EXPECT_LT(bil_phases, bins_phases);
}

// ---- Splitter network (Moir–Anderson grid) ----------------------------------

TEST(SplitterNet, FaultFreeRunsExactlyNRoundsWithUniqueNames) {
  // One anti-diagonal of the grid per round: failure-free, every process
  // leaves the grid after exactly n rounds, and names are pairwise distinct
  // within the triangular namespace.
  for (std::uint32_t n : {1u, 2u, 16u, 64u}) {
    RunConfig config;
    config.algorithm = harness::Algorithm::kSplitterNet;
    config.n = n;
    config.seed = 4;
    const auto summary = harness::run_renaming(config);
    EXPECT_TRUE(summary.completed) << "n=" << n;
    EXPECT_EQ(summary.rounds, n) << "n=" << n;
    std::set<std::uint64_t> names;
    for (const auto& outcome : summary.raw.outcomes) {
      EXPECT_GE(outcome.name, 1u);
      EXPECT_LE(outcome.name,
                baselines::SplitterNetProcess::namespace_bound(n, 0));
      names.insert(outcome.name);
    }
    EXPECT_EQ(names.size(), n) << "n=" << n;
  }
}

TEST(SplitterNet, NamespaceIsQuadraticNotTight) {
  // The separation from the paper's algorithms: the splitter grid renames
  // into Θ((n+t)²) names, never the tight 1..n namespace. The deepest
  // splitter a failure-free run can reach sits on diagonal n-1.
  EXPECT_EQ(baselines::SplitterNetProcess::splitter_name(0, 0), 1u);
  EXPECT_EQ(baselines::SplitterNetProcess::splitter_name(1, 0), 2u);
  EXPECT_EQ(baselines::SplitterNetProcess::splitter_name(0, 1), 3u);
  EXPECT_GT(baselines::SplitterNetProcess::namespace_bound(64, 8),
            std::uint64_t{64} * 64 / 2);
}

TEST(SplitterNet, DeterministicForSeed) {
  RunConfig config;
  config.algorithm = harness::Algorithm::kSplitterNet;
  config.n = 48;
  config.seed = 9;
  config.adversary = {.kind = AdversaryKind::kEager, .crashes = 6, .when = 1,
                      .per_round = 1,
                      .subset = sim::SubsetPolicy::kRandomHalf};
  const auto a = harness::run_renaming(config);
  const auto b = harness::run_renaming(config);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.crashes, b.crashes);
  for (std::size_t i = 0; i < 48; ++i) {
    EXPECT_EQ(a.raw.outcomes[i].name, b.raw.outcomes[i].name);
  }
}

TEST(SplitterNet, SurvivesCrashStrategies) {
  // Crash ghosts can only demote right-moves to down-moves, so validation
  // (unique names within namespace_bound(n, t)) must hold under every
  // registered crash pattern.
  const std::vector<AdversarySpec> specs = {
      {.kind = AdversaryKind::kOblivious, .crashes = 8, .horizon = 24},
      {.kind = AdversaryKind::kBurst, .crashes = 8, .when = 0,
       .subset = sim::SubsetPolicy::kSilent},
      {.kind = AdversaryKind::kBurst, .crashes = 8, .when = 2,
       .subset = sim::SubsetPolicy::kAlternating},
      {.kind = AdversaryKind::kEager, .crashes = 12, .when = 0,
       .per_round = 2, .subset = sim::SubsetPolicy::kRandomHalf},
  };
  for (const AdversarySpec& spec : specs) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      RunConfig config;
      config.algorithm = harness::Algorithm::kSplitterNet;
      config.n = 32;
      config.seed = seed;
      config.adversary = spec;
      const auto summary = harness::run_renaming(config);
      EXPECT_TRUE(summary.completed)
          << to_string(spec.kind) << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace bil
