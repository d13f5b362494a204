// Unit tests for util: contracts, deterministic RNG, math helpers.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "core/seeds.h"
#include "util/contract.h"
#include "util/flags.h"
#include "util/math.h"
#include "util/rng.h"

namespace bil {
namespace {

// ---- Contracts --------------------------------------------------------------

TEST(Contract, RequireThrowsWithDiagnostics) {
  try {
    BIL_REQUIRE(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& violation) {
    EXPECT_STREQ(violation.kind(), "requires");
    EXPECT_NE(std::string(violation.what()).find("math broke"),
              std::string::npos);
    EXPECT_NE(std::string(violation.what()).find("1 == 2"),
              std::string::npos);
  }
}

TEST(Contract, EnsureThrowsWithKind) {
  try {
    BIL_ENSURE(false, std::string("detail"));
    FAIL() << "should have thrown";
  } catch (const ContractViolation& violation) {
    EXPECT_STREQ(violation.kind(), "ensures");
  }
}

TEST(Contract, PassingChecksAreSilent) {
  EXPECT_NO_THROW(BIL_REQUIRE(true, ""));
  EXPECT_NO_THROW(BIL_ENSURE(2 + 2 == 4, ""));
}

// ---- splitmix64 -------------------------------------------------------------

TEST(SplitMix, MatchesReferenceVector) {
  // Reference values for seed 0 from the canonical splitmix64
  // implementation (Vigna).
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64_next(state), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64_next(state), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(splitmix64_next(state), 0x06C45D188009454FULL);
}

TEST(SplitMix, DistinctSeedsDistinctStreams) {
  std::uint64_t a = 1;
  std::uint64_t b = 2;
  EXPECT_NE(splitmix64_next(a), splitmix64_next(b));
}

// ---- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a() == b() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(rng.below(1), 0u);
  }
}

// Rng::below skips the threshold division for draws >= bound (always
// accepted, since 2^64 mod bound < bound). This reference divides first, as
// the sampler once did; both must consume and return the same stream,
// including at bounds whose threshold rejects about half of all draws.
std::uint64_t below_dividing_first(Rng& rng, std::uint64_t bound) {
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t value = rng();
    if (value >= threshold) {
      return value % bound;
    }
  }
}

TEST(Rng, BelowMatchesTheDivisionFirstStream) {
  std::vector<std::uint64_t> bounds = {1, 2, 3, (1ULL << 63) + 1, ~0ULL};
  for (int k = 2; k < 64; ++k) {
    bounds.push_back((1ULL << k) - 1);
    bounds.push_back((1ULL << k) + 1);
  }
  for (const std::uint64_t bound : bounds) {
    Rng fast(bound ^ 0x5EED);
    Rng reference(bound ^ 0x5EED);
    for (int i = 0; i < 256; ++i) {
      ASSERT_EQ(fast.below(bound), below_dividing_first(reference, bound))
          << "bound " << bound << ", draw " << i;
    }
    EXPECT_EQ(fast(), reference()) << "bound " << bound;
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(99);
  std::array<int, 4> buckets{};
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    buckets[rng.below(4)] += 1;
  }
  for (int count : buckets) {
    EXPECT_NEAR(count, kDraws / 4, kDraws / 40);  // within 10%
  }
}

TEST(Rng, BetweenCoversBothEndpoints) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng.between(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, BernoulliDegenerateCases) {
  Rng rng(11);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(rng.bernoulli_ratio(0, 5));
    EXPECT_TRUE(rng.bernoulli_ratio(5, 5));
    EXPECT_TRUE(rng.bernoulli_ratio(7, 5));  // clamped
  }
}

TEST(Rng, BernoulliMatchesRatioStatistically) {
  Rng rng(13);
  constexpr int kDraws = 60000;
  int heads = 0;
  for (int i = 0; i < kDraws; ++i) {
    heads += rng.bernoulli_ratio(3, 8) ? 1 : 0;
  }
  const double expected = 3.0 / 8.0 * kDraws;
  EXPECT_NEAR(heads, expected, 0.05 * expected);
}

TEST(Rng, ForkIsDeterministic) {
  Rng parent_a(21);
  Rng parent_b(21);
  Rng child_a = parent_a.fork(1);
  Rng child_b = parent_b.fork(1);
  EXPECT_EQ(child_a(), child_b());
}

TEST(Rng, ForkTagsYieldDistinctStreams) {
  Rng parent_a(33);
  Rng parent_b(33);
  Rng fork_1 = parent_a.fork(1);
  Rng fork_2 = parent_b.fork(2);
  EXPECT_NE(fork_1(), fork_2());
}

TEST(Rng, ForkAdvancesParent) {
  Rng forked(55);
  Rng plain(55);
  (void)forked.fork(0);
  EXPECT_NE(forked(), plain());  // parent consumed one draw for the fork
}

TEST(DeriveSeed, IndependentAcrossDomainsAndIndices) {
  const std::uint64_t base = 1234;
  std::set<std::uint64_t> seeds;
  for (std::uint64_t domain = 1; domain <= 3; ++domain) {
    for (std::uint64_t index = 0; index < 50; ++index) {
      seeds.insert(derive_seed(base, domain, index));
    }
  }
  EXPECT_EQ(seeds.size(), 150u);  // no collisions in this small grid
  EXPECT_EQ(derive_seed(base, 1, 0), derive_seed(base, 1, 0));
  EXPECT_NE(derive_seed(base, 1, 0), derive_seed(base + 1, 1, 0));
}

TEST(DeriveSeed, RegisteredDomainsArePairwiseDistinct) {
  // The named seed domains (core/seeds.h) partition a run seed into
  // independent streams; a duplicate constant would silently correlate two
  // subsystems (e.g. the search optimizer replaying adversary coins).
  const std::uint64_t domains[] = {
      core::kSeedDomainProcess,        core::kSeedDomainAdversary,
      core::kSeedDomainHarness,        core::kSeedDomainChurnArrivals,
      core::kSeedDomainChurnLease,     core::kSeedDomainServiceInstance,
      core::kSeedDomainByzantine,      core::kSeedDomainSearch,
      core::kSeedDomainSplitter};
  std::set<std::uint64_t> distinct_constants(std::begin(domains),
                                             std::end(domains));
  EXPECT_EQ(distinct_constants.size(), std::size(domains));
  std::set<std::uint64_t> derived;
  for (const std::uint64_t domain : domains) {
    derived.insert(derive_seed(99, domain, 0));
  }
  EXPECT_EQ(derived.size(), std::size(domains));
}

// ---- math -------------------------------------------------------------------

TEST(Math, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(1023), 9u);
  EXPECT_EQ(floor_log2(1024), 10u);
  EXPECT_EQ(floor_log2(~0ULL), 63u);
  EXPECT_THROW((void)floor_log2(0), ContractViolation);
}

TEST(Math, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
  EXPECT_THROW((void)ceil_log2(0), ContractViolation);
}

TEST(Math, PowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(1ULL << 40));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(6));
}

TEST(Math, Log2Log2) {
  EXPECT_DOUBLE_EQ(log2_log2(2.0), 0.0);
  EXPECT_DOUBLE_EQ(log2_log2(4.0), 1.0);
  EXPECT_DOUBLE_EQ(log2_log2(16.0), 2.0);
  EXPECT_DOUBLE_EQ(log2_log2(65536.0), 4.0);
  EXPECT_DOUBLE_EQ(log2_log2(1.0), 0.0);  // clamped
}

TEST(Math, CheckedCast) {
  EXPECT_EQ(checked_cast<std::uint8_t>(255), 255u);
  EXPECT_THROW((void)checked_cast<std::uint8_t>(256), ContractViolation);
  EXPECT_THROW((void)checked_cast<std::uint32_t>(-1), ContractViolation);
  EXPECT_EQ(checked_cast<std::int8_t>(-100), -100);
}

// ---- flags ------------------------------------------------------------------

std::vector<const char*> args(std::initializer_list<const char*> list) {
  return std::vector<const char*>(list);
}

TEST(Flags, ParsesAllStyles) {
  std::string name = "default";
  std::uint64_t count = 1;
  bool verbose = false;
  FlagSet flags("test", "demo");
  flags.add_string("name", &name, "a name");
  flags.add_uint("count", &count, "a count");
  flags.add_bool("verbose", &verbose, "chatty");
  std::string mode = "fast";
  std::uint64_t level = 3;
  flags.add_string("mode", &mode, "a mode");
  flags.add_uint("level", &level, "a level");

  const auto argv =
      args({"--name=alpha", "--count", "42", "--verbose", "--mode=fast"});
  EXPECT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(name, "alpha");
  EXPECT_EQ(count, 42u);
  EXPECT_TRUE(verbose);
  // given() reports what the command line named, even at a default value.
  EXPECT_TRUE(flags.given("name"));
  EXPECT_TRUE(flags.given("count"));
  EXPECT_TRUE(flags.given("verbose"));
  EXPECT_TRUE(flags.given("mode"));
  EXPECT_FALSE(flags.given("level"));
  EXPECT_THROW((void)flags.given("nope"), ContractViolation);
}

TEST(Flags, BooleanNegation) {
  bool verbose = true;
  FlagSet flags("test", "demo");
  flags.add_bool("verbose", &verbose, "chatty");
  const auto argv = args({"--no-verbose"});
  EXPECT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_FALSE(verbose);
  EXPECT_TRUE(flags.given("verbose"));
}

TEST(Flags, HelpShortCircuits) {
  std::uint64_t count = 7;
  FlagSet flags("test", "demo");
  flags.add_uint("count", &count, "a count");
  const auto argv = args({"--help"});
  EXPECT_FALSE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_NE(flags.usage().find("--count"), std::string::npos);
  EXPECT_NE(flags.usage().find("default: 7"), std::string::npos);
}

TEST(Flags, RejectsBadInput) {
  std::uint64_t count = 0;
  FlagSet flags("test", "demo");
  flags.add_uint("count", &count, "a count");

  const auto unknown = args({"--nope=1"});
  EXPECT_THROW((void)flags.parse(static_cast<int>(unknown.size()),
                                 unknown.data()),
               ContractViolation);
  const auto not_a_number = args({"--count=xyz"});
  EXPECT_THROW((void)flags.parse(static_cast<int>(not_a_number.size()),
                                 not_a_number.data()),
               ContractViolation);
  const auto missing_value = args({"--count"});
  EXPECT_THROW((void)flags.parse(static_cast<int>(missing_value.size()),
                                 missing_value.data()),
               ContractViolation);
  const auto not_a_flag = args({"count=3"});
  EXPECT_THROW((void)flags.parse(static_cast<int>(not_a_flag.size()),
                                 not_a_flag.data()),
               ContractViolation);
}

TEST(Flags, RejectsDuplicateRegistration) {
  std::uint64_t count = 0;
  FlagSet flags("test", "demo");
  flags.add_uint("count", &count, "a count");
  EXPECT_THROW(flags.add_uint("count", &count, "again"), ContractViolation);
}

}  // namespace
}  // namespace bil
