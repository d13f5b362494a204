// Golden-seed regression suite: every engine refactor must reproduce these
// runs bit-for-bit.
//
// The pinned values in golden_values.inc were captured from the engine as of
// the pre-delivery-fabric implementation (the straightforward per-recipient
// full-scan deliver_round) and locked in before the round-batched delivery
// fabric landed — so a pass here proves the fabric is behavior-preserving:
// identical rounds, identical decided names (hashed), identical traffic
// counters, for every algorithm × adversary × n × seed cell in
// harness::golden_grid(). The Byzantine (liar, bounded equivocator) and
// delay (bounded-delay, GST) cells joined later, captured from the engine
// that still delivered every fault round per recipient and ran delay rounds
// serially, before inbox classes and the pooled async path replaced both.
// The timeout cells were captured from the event-queue executor before the
// delay path was folded into the lock-step round loop.
//
// To re-capture after an intentional semantic change:
//   $ cmake --build build --target golden_gen
//   $ build/golden_gen > tests/golden_values.inc
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/two_choice.h"
#include "harness/golden.h"
#include "util/thread_pool.h"

namespace bil::harness {
namespace {

constexpr GoldenObservation kGolden[] = {
#include "golden_values.inc"
};

TEST(GoldenRuns, GridMatchesTableSize) {
  EXPECT_EQ(golden_grid().size(), std::size(kGolden));
}

void expect_grid_matches(std::uint32_t engine_threads) {
  const std::vector<GoldenCell> grid = golden_grid();
  ASSERT_EQ(grid.size(), std::size(kGolden));
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const GoldenObservation observed =
        run_golden_cell(grid[i], engine_threads);
    const GoldenObservation& expected = kGolden[i];
    EXPECT_EQ(observed.rounds, expected.rounds) << describe(grid[i]);
    EXPECT_EQ(observed.total_rounds, expected.total_rounds)
        << describe(grid[i]);
    EXPECT_EQ(observed.crashes, expected.crashes) << describe(grid[i]);
    EXPECT_EQ(observed.messages_delivered, expected.messages_delivered)
        << describe(grid[i]);
    EXPECT_EQ(observed.bytes_delivered, expected.bytes_delivered)
        << describe(grid[i]);
    EXPECT_EQ(observed.max_payload_bytes, expected.max_payload_bytes)
        << describe(grid[i]);
    EXPECT_EQ(observed.names_hash, expected.names_hash)
        << describe(grid[i]) << " — decided names diverged (engine_threads="
        << engine_threads << ")";
  }
}

TEST(GoldenRuns, EveryCellIsBitIdentical) { expect_grid_matches(1); }

// The intra-round parallel executor must reproduce the same pinned table:
// the fan-out across worker threads may not change a single observable. At
// least 4 workers even on small machines, so the pool dispatch path (not
// the serial fallback) is what runs.
TEST(GoldenRuns, EveryCellIsBitIdenticalWithMaxEngineThreads) {
  expect_grid_matches(
      std::max(4u, bil::util::ThreadPool::hardware_threads()));
}

// The timeout cells pin ProcessBase::on_timeout only if it moves the
// outcome: at least one of them must finish in a different number of
// rounds than the same cell with timeouts disabled.
TEST(GoldenRuns, TimeoutCellsPinAnOutcomeTheTimeoutChanges) {
  std::size_t timeout_cells = 0;
  std::size_t changed = 0;
  for (const GoldenCell& cell : golden_grid()) {
    if (cell.adversary.delay.timeout == 0) {
      continue;
    }
    ++timeout_cells;
    GoldenCell untimed = cell;
    untimed.adversary.delay.timeout = 0;
    if (run_golden_cell(untimed).rounds != run_golden_cell(cell).rounds) {
      ++changed;
    }
  }
  EXPECT_EQ(timeout_cells, 8u);
  EXPECT_GT(changed, 0u);
}

// ---- Two-choice allocator golden cells --------------------------------------
//
// baselines::run_two_choice is not an engine run (no wire, no adversary),
// so it sits outside golden_grid() — but the load-balancing-gap preset's
// claims are built on its outputs, so its (seed → allocation) mapping is
// pinned here the same way: max load, bins used, colliding-ball count and
// an FNV-1a hash of the full bin_of vector, captured from the
// pre-refactor implementation (PR 5's buffer-reuse change had to be
// bit-preserving).

struct TwoChoiceGolden {
  std::uint32_t n = 0;
  std::uint64_t seed = 0;
  std::uint32_t max_load = 0;
  std::uint32_t bins_used = 0;
  std::uint32_t colliding_balls = 0;
  std::uint64_t bins_hash = 0;
};

constexpr TwoChoiceGolden kTwoChoiceGolden[] = {
    {64, 24301ull, 4, 41, 40, 0x5bc0969818abf38ull},
    {64, 9001ull, 4, 40, 39, 0x54847af4843a506aull},
    {256, 24301ull, 6, 162, 153, 0x4702075045176847ull},
    {256, 9001ull, 5, 171, 149, 0x9dba5a4759fa9c01ull},
    {1024, 24301ull, 5, 654, 641, 0xd86c2cd10dade1cdull},
    {1024, 9001ull, 5, 643, 659, 0x232e723eb7ee3db8ull},
};

TEST(GoldenRuns, TwoChoiceAllocatorIsBitIdentical) {
  for (const TwoChoiceGolden& expected : kTwoChoiceGolden) {
    baselines::TwoChoiceOptions options;
    options.balls = expected.n;
    options.bins = expected.n;
    options.choices = 2;
    options.rounds = 3;
    options.seed = expected.seed;
    const baselines::TwoChoiceResult result =
        baselines::run_two_choice(options);
    EXPECT_EQ(result.max_load, expected.max_load)
        << "n=" << expected.n << " seed=" << expected.seed;
    EXPECT_EQ(result.bins_used, expected.bins_used)
        << "n=" << expected.n << " seed=" << expected.seed;
    EXPECT_EQ(result.colliding_balls, expected.colliding_balls)
        << "n=" << expected.n << " seed=" << expected.seed;
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const std::uint32_t bin : result.bin_of) {
      for (int shift = 0; shift < 32; shift += 8) {
        hash ^= (bin >> shift) & 0xffu;
        hash *= 0x100000001b3ull;
      }
    }
    EXPECT_EQ(hash, expected.bins_hash)
        << "n=" << expected.n << " seed=" << expected.seed
        << " — the allocation itself diverged";
  }
}

// ---- Splitter-network golden cells ------------------------------------------
//
// The splitter baseline joined after the kGolden table was pinned;
// golden_grid() hardcodes its algorithm list, so these cells live in their
// own table rather than perturbing the golden_grid() fingerprint. Same contract:
// rounds, crash count, and an FNV-1a hash of the full name vector, captured
// at introduction.

struct SplitterGolden {
  std::uint32_t n = 0;
  std::uint64_t seed = 0;
  std::uint32_t crash_budget = 0;
  std::uint32_t rounds = 0;
  std::uint32_t crashes = 0;
  std::uint64_t names_hash = 0;
};

constexpr SplitterGolden kSplitterGolden[] = {
    {32, 3ull, 0, 32, 0, 0x568352fe14d66ddaull},
    {48, 5ull, 6, 48, 6, 0xc4fbc876f3b46297ull},
};

TEST(GoldenRuns, SplitterNetworkIsBitIdentical) {
  for (const SplitterGolden& expected : kSplitterGolden) {
    RunConfig config;
    config.algorithm = Algorithm::kSplitterNet;
    config.n = expected.n;
    config.seed = expected.seed;
    if (expected.crash_budget > 0) {
      config.adversary = {.kind = AdversaryKind::kEager,
                          .crashes = expected.crash_budget,
                          .when = 1,
                          .per_round = 1,
                          .subset = sim::SubsetPolicy::kRandomHalf};
    }
    const RunSummary summary = run_renaming(config);
    EXPECT_EQ(summary.rounds, expected.rounds)
        << "n=" << expected.n << " seed=" << expected.seed;
    EXPECT_EQ(summary.crashes, expected.crashes)
        << "n=" << expected.n << " seed=" << expected.seed;
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const sim::ProcessOutcome& outcome : summary.raw.outcomes) {
      const std::uint64_t name = outcome.crashed ? 0 : outcome.name;
      for (int shift = 0; shift < 64; shift += 8) {
        hash ^= (name >> shift) & 0xffu;
        hash *= 0x100000001b3ull;
      }
    }
    EXPECT_EQ(hash, expected.names_hash)
        << "n=" << expected.n << " seed=" << expected.seed
        << " — the renaming itself diverged (actual hash 0x" << std::hex
        << hash << ")";
  }
}

}  // namespace
}  // namespace bil::harness
