// Registry round-trip tests: every registered algorithm/adversary name (and
// alias) parses back to the entry it came from, canonical names agree with
// the harness to_string mappings, and unknown names produce the documented
// BIL_REQUIRE diagnostic listing the accepted vocabulary.
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <set>
#include <string>

#include "api/backend.h"
#include "api/registry.h"
#include "util/contract.h"

namespace bil {
namespace {

using harness::AdversaryKind;
using harness::AdversarySpec;

TEST(Registry, EveryAlgorithmNameRoundTrips) {
  for (const api::AlgorithmInfo& info : api::algorithm_registry()) {
    EXPECT_EQ(api::parse_algorithm(info.name).algorithm, info.algorithm)
        << info.name;
    for (const std::string& alias : info.aliases) {
      EXPECT_EQ(api::parse_algorithm(alias).algorithm, info.algorithm)
          << alias;
    }
  }
}

TEST(Registry, EveryAdversaryNameRoundTrips) {
  for (const api::AdversaryInfo& info : api::adversary_registry()) {
    EXPECT_EQ(api::parse_adversary(info.name).kind, info.kind) << info.name;
    for (const std::string& alias : info.aliases) {
      EXPECT_EQ(api::parse_adversary(alias).kind, info.kind) << alias;
    }
  }
}

TEST(Registry, CanonicalNamesMatchHarnessToString) {
  for (const api::AlgorithmInfo& info : api::algorithm_registry()) {
    EXPECT_EQ(info.name, harness::to_string(info.algorithm));
  }
  for (const api::AdversaryInfo& info : api::adversary_registry()) {
    EXPECT_EQ(info.name, harness::to_string(info.kind));
  }
}

TEST(Registry, NamesAndAliasesAreUnique) {
  std::set<std::string> seen;
  for (const api::AlgorithmInfo& info : api::algorithm_registry()) {
    EXPECT_TRUE(seen.insert(info.name).second) << info.name;
    for (const std::string& alias : info.aliases) {
      EXPECT_TRUE(seen.insert(alias).second) << alias;
    }
  }
  seen.clear();
  for (const api::AdversaryInfo& info : api::adversary_registry()) {
    EXPECT_TRUE(seen.insert(info.name).second) << info.name;
    for (const std::string& alias : info.aliases) {
      EXPECT_TRUE(seen.insert(alias).second) << alias;
    }
  }
}

TEST(Registry, AdversaryFactoriesProduceTheirOwnKind) {
  const api::AdversaryKnobs knobs{.crashes = 8,
                                  .when = 3,
                                  .horizon = 12,
                                  .per_round = 2,
                                  .subset = sim::SubsetPolicy::kAlternating};
  for (const api::AdversaryInfo& info : api::adversary_registry()) {
    const harness::AdversarySpec spec = info.make(knobs);
    EXPECT_EQ(spec.kind, info.kind) << info.name;
  }
}

TEST(Registry, FactoriesApplyTheirRelevantKnobs) {
  const api::AdversaryKnobs knobs{
      .crashes = 8, .when = 3, .horizon = 12, .per_round = 2};
  const harness::AdversarySpec oblivious =
      api::parse_adversary("oblivious").make(knobs);
  EXPECT_EQ(oblivious.crashes, 8u);
  EXPECT_EQ(oblivious.horizon, 12u);
  const harness::AdversarySpec burst = api::parse_adversary("burst").make(knobs);
  EXPECT_EQ(burst.when, 3u);
  const harness::AdversarySpec eager = api::parse_adversary("eager").make(knobs);
  EXPECT_EQ(eager.per_round, 2u);
}

TEST(Registry, EveryEnumValueIsRegistered) {
  // algorithm_info / adversary_info are total over the enums.
  for (const api::AlgorithmInfo& info : api::algorithm_registry()) {
    EXPECT_EQ(api::algorithm_info(info.algorithm).name, info.name);
  }
  for (const api::AdversaryInfo& info : api::adversary_registry()) {
    EXPECT_EQ(api::adversary_info(info.kind).name, info.name);
  }
}

TEST(Registry, UnknownAlgorithmDiagnostic) {
  try {
    (void)api::parse_algorithm("no-such-algorithm");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& violation) {
    const std::string what = violation.what();
    EXPECT_NE(what.find("unknown algorithm 'no-such-algorithm'"),
              std::string::npos)
        << what;
    // The diagnostic lists the accepted vocabulary, generated from the
    // registry itself.
    for (const api::AlgorithmInfo& info : api::algorithm_registry()) {
      EXPECT_NE(what.find(info.name), std::string::npos) << info.name;
    }
  }
}

TEST(Registry, UnknownAdversaryDiagnostic) {
  try {
    (void)api::parse_adversary("no-such-adversary");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& violation) {
    const std::string what = violation.what();
    EXPECT_NE(what.find("unknown adversary 'no-such-adversary'"),
              std::string::npos)
        << what;
    for (const api::AdversaryInfo& info : api::adversary_registry()) {
      EXPECT_NE(what.find(info.name), std::string::npos) << info.name;
    }
  }
}

TEST(Registry, BackendNamesRoundTrip) {
  for (api::BackendKind kind :
       {api::BackendKind::kAuto, api::BackendKind::kEngine,
        api::BackendKind::kFastSim}) {
    EXPECT_EQ(api::parse_backend(api::to_string(kind)), kind);
  }
  EXPECT_THROW((void)api::parse_backend("quantum"), ContractViolation);
}

TEST(Registry, FastSimCapabilityMatchesTreeAlgorithms) {
  EXPECT_TRUE(api::parse_algorithm("bil").fast_sim_capable);
  EXPECT_TRUE(api::parse_algorithm("early").fast_sim_capable);
  EXPECT_TRUE(api::parse_algorithm("rank").fast_sim_capable);
  EXPECT_TRUE(api::parse_algorithm("halving").fast_sim_capable);
  EXPECT_FALSE(api::parse_algorithm("gossip").fast_sim_capable);
  EXPECT_FALSE(api::parse_algorithm("bins").fast_sim_capable);
  EXPECT_FALSE(api::parse_algorithm("splitter").fast_sim_capable);
}

TEST(Registry, FamiliesGroupAlgorithmsByConstruction) {
  // The family column (bil_run --list-algorithms) classifies each entry by
  // its construction: the four tree policies, and one family per baseline.
  EXPECT_EQ(api::parse_algorithm("bil").family, "tree");
  EXPECT_EQ(api::parse_algorithm("early").family, "tree");
  EXPECT_EQ(api::parse_algorithm("rank").family, "tree");
  EXPECT_EQ(api::parse_algorithm("halving").family, "tree");
  EXPECT_EQ(api::parse_algorithm("gossip").family, "gossip");
  EXPECT_EQ(api::parse_algorithm("bins").family, "bins");
  EXPECT_EQ(api::parse_algorithm("splitter").family, "splitter");
  for (const api::AlgorithmInfo& info : api::algorithm_registry()) {
    EXPECT_TRUE(info.family == "tree" || info.family == "gossip" ||
                info.family == "bins" || info.family == "splitter")
        << info.name << " has unknown family '" << info.family << "'";
  }
}

// The knobs -> spec mapping each registry entry carried as its own
// hand-written lambda before the adversary table derived it from the
// kind's knob set. Kept verbatim as the reference the table must match.
AdversarySpec reference_spec(AdversaryKind kind,
                             const api::AdversaryKnobs& knobs) {
  switch (kind) {
    case AdversaryKind::kNone:
      return AdversarySpec{.kind = AdversaryKind::kNone, .delay = {}};
    case AdversaryKind::kOblivious:
      return AdversarySpec{.kind = AdversaryKind::kOblivious,
                           .crashes = knobs.crashes,
                           .horizon = knobs.horizon,
                           .subset = knobs.subset,
                           .delay = {}};
    case AdversaryKind::kBurst:
      return AdversarySpec{.kind = AdversaryKind::kBurst,
                           .crashes = knobs.crashes,
                           .when = knobs.when,
                           .subset = knobs.subset,
                           .delay = {}};
    case AdversaryKind::kSandwich:
      return AdversarySpec{.kind = AdversaryKind::kSandwich,
                           .crashes = knobs.crashes,
                           .per_round = knobs.per_round,
                           .delay = {}};
    case AdversaryKind::kEager:
      return AdversarySpec{.kind = AdversaryKind::kEager,
                           .crashes = knobs.crashes,
                           .when = knobs.when,
                           .per_round = knobs.per_round,
                           .subset = knobs.subset,
                           .delay = {}};
    case AdversaryKind::kTargetedWinner:
      return AdversarySpec{.kind = AdversaryKind::kTargetedWinner,
                           .crashes = knobs.crashes,
                           .per_round = knobs.per_round,
                           .subset = knobs.subset,
                           .delay = {}};
    case AdversaryKind::kTargetedAnnouncer:
      return AdversarySpec{.kind = AdversaryKind::kTargetedAnnouncer,
                           .crashes = knobs.crashes,
                           .per_round = knobs.per_round,
                           .subset = knobs.subset,
                           .delay = {}};
    case AdversaryKind::kByzantineBitFlip:
      return AdversarySpec{.kind = AdversaryKind::kByzantineBitFlip,
                           .byzantine = knobs.byzantine,
                           .byzantine_rounds = knobs.byzantine_rounds,
                           .delay = {}};
    case AdversaryKind::kByzantineLiar:
      return AdversarySpec{.kind = AdversaryKind::kByzantineLiar,
                           .byzantine = knobs.byzantine,
                           .byzantine_rounds = knobs.byzantine_rounds,
                           .delay = {}};
    case AdversaryKind::kByzantineEquivocator:
      return AdversarySpec{.kind = AdversaryKind::kByzantineEquivocator,
                           .byzantine = knobs.byzantine,
                           .byzantine_rounds = knobs.byzantine_rounds,
                           .delay = {}};
    case AdversaryKind::kBoundedDelay:
      return AdversarySpec{.kind = AdversaryKind::kBoundedDelay,
                           .delay = {.max_delay = knobs.max_delay,
                                     .gst = 0,
                                     .timeout = knobs.timeout}};
    case AdversaryKind::kGst:
      return AdversarySpec{.kind = AdversaryKind::kGst,
                           .delay = {.max_delay = knobs.max_delay,
                                     .gst = knobs.gst,
                                     .timeout = knobs.timeout}};
  }
  ADD_FAILURE() << "kind without a reference spec";
  return {};
}

void expect_same_spec(const AdversarySpec& actual,
                      const AdversarySpec& expected, const char* name) {
  EXPECT_EQ(actual.kind, expected.kind) << name;
  EXPECT_EQ(actual.crashes, expected.crashes) << name;
  EXPECT_EQ(actual.when, expected.when) << name;
  EXPECT_EQ(actual.horizon, expected.horizon) << name;
  EXPECT_EQ(actual.per_round, expected.per_round) << name;
  EXPECT_EQ(actual.subset, expected.subset) << name;
  EXPECT_EQ(actual.byzantine, expected.byzantine) << name;
  EXPECT_EQ(actual.byzantine_rounds, expected.byzantine_rounds) << name;
  EXPECT_EQ(actual.delay.max_delay, expected.delay.max_delay) << name;
  EXPECT_EQ(actual.delay.gst, expected.delay.gst) << name;
  EXPECT_EQ(actual.delay.timeout, expected.delay.timeout) << name;
}

TEST(AdversaryTable, KnobsToSpecMatchesTheReferenceOnRandomKnobs) {
  std::mt19937_64 rng(0xAD7AB1E);
  const auto draw = [&rng](std::uint64_t max) {
    return std::uniform_int_distribution<std::uint64_t>(0, max)(rng);
  };
  constexpr std::uint32_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  for (int trial = 0; trial < 1000; ++trial) {
    // Small values most of the time, the full range now and then.
    const std::uint64_t range = trial % 10 == 0 ? kMax32 : 64;
    api::AdversaryKnobs knobs;
    knobs.crashes = static_cast<std::uint32_t>(draw(range));
    knobs.when = static_cast<sim::RoundNumber>(draw(range));
    knobs.horizon = static_cast<sim::RoundNumber>(draw(range));
    knobs.per_round = static_cast<std::uint32_t>(draw(range));
    knobs.subset = static_cast<sim::SubsetPolicy>(draw(3));
    knobs.byzantine = static_cast<std::uint32_t>(draw(range));
    knobs.byzantine_rounds = static_cast<sim::RoundNumber>(draw(range));
    knobs.max_delay = static_cast<std::uint32_t>(draw(range));
    knobs.gst = draw(trial % 10 == 0 ? std::numeric_limits<std::uint64_t>::max()
                                     : 64);
    knobs.timeout = draw(trial % 10 == 0
                             ? std::numeric_limits<std::uint64_t>::max()
                             : 64);
    for (const api::AdversaryInfo& info : api::adversary_registry()) {
      expect_same_spec(info.make(knobs), reference_spec(info.kind, knobs),
                       info.name);
    }
    if (HasFailure()) {
      return;  // one failing knob set is enough to diagnose
    }
  }
}

TEST(AdversaryTable, RowsAreConsistent) {
  const auto table = harness::adversary_table();
  ASSERT_EQ(table.size(),
            static_cast<std::size_t>(AdversaryKind::kGst) + 1);
  for (std::size_t i = 0; i < table.size(); ++i) {
    const harness::AdversaryDescriptor& row = table[i];
    EXPECT_EQ(static_cast<std::size_t>(row.kind), i) << row.name;
    EXPECT_EQ(row.fast_sim_capable(),
              row.route != harness::FastSimRoute::kEngineOnly)
        << row.name;
    const bool delay = row.fault_model == harness::FaultModel::kDelay;
    EXPECT_EQ(delay, row.timing() == "async-only") << row.name;
    EXPECT_EQ(delay, harness::is_delay_kind(row.kind)) << row.name;
    // Delay kinds are schedulers; every other kind but kNone is an
    // adversary object.
    EXPECT_EQ(delay, row.build_scheduler != nullptr) << row.name;
    EXPECT_EQ(!delay && row.kind != AdversaryKind::kNone,
              row.build_adversary != nullptr)
        << row.name;
    // Only the failure-free kind takes the crash-free route.
    EXPECT_EQ(row.kind == AdversaryKind::kNone,
              row.route == harness::FastSimRoute::kCrashFree)
        << row.name;
    EXPECT_STREQ(harness::to_string(row.kind), row.name);
  }
}

TEST(AdversaryTable, AutoSelectionSwitchesAtEachRoutesThreshold) {
  api::AdversaryKnobs knobs;
  knobs.crashes = 4;
  for (const api::AdversaryInfo& info : api::adversary_registry()) {
    api::CellConfig cell;
    cell.adversary = info.make(knobs);
    if (!info.fast_sim_capable()) {
      cell.n = api::kAutoFastSimCrashMinN * 4;
      EXPECT_EQ(api::select_backend(cell), api::BackendKind::kEngine)
          << info.name;
      continue;
    }
    const std::uint32_t threshold = api::auto_fast_sim_min_n(info.route);
    cell.n = threshold - 1;
    EXPECT_EQ(api::select_backend(cell), api::BackendKind::kEngine)
        << info.name << " at n = " << cell.n;
    cell.n = threshold;
    EXPECT_EQ(api::select_backend(cell), api::BackendKind::kFastSim)
        << info.name << " at n = " << cell.n;
  }
  EXPECT_EQ(api::auto_fast_sim_min_n(harness::FastSimRoute::kCrashFree),
            api::kAutoFastSimMinN);
  EXPECT_EQ(api::auto_fast_sim_min_n(harness::FastSimRoute::kScheduleReplay),
            api::kAutoFastSimCrashMinN);
  EXPECT_EQ(api::auto_fast_sim_min_n(harness::FastSimRoute::kTrafficOracle),
            api::kAutoFastSimTargetedMinN);
}

}  // namespace
}  // namespace bil
