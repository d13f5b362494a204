// Long-lived renaming service suites.
//
// Part 1 — name-lease safety, checked as a property over every churn
// profile × seed: hanging off ServiceObserver, an auditor shadows the
// service's lease lifecycle and asserts, at every join, that
//   * no two live clients ever hold the same name (lease exclusivity), and
//   * a recycled name is handed out only after its previous holder's
//     departure was observed (no reuse while leased),
// and at every leave that the departing client returns exactly the name it
// was granted. The grid includes an explicit-engine cell with
// engine_threads > 1, which is the cell the TSan CI job drives through the
// parallel executor.
//
// Part 2 — determinism: service metrics are byte-equal across engine
// thread widths and across the engine/fast-sim backends, and ChurnStream
// is a pure function of (spec, n, seed, round) regardless of query order.
//
// Part 3 — NameLeaseTable unit coverage incl. contract violations, a
// differential test of the bitset table against a std::set model, the
// service's 32-bit namespace limits, and sanity on the chunked Poisson
// sampler's mean.
//
// Part 4 — golden service cells: every ServiceMetrics field plus an FNV-1a
// hash of the full observer event stream, pinned per cell, so a rewrite of
// the driver's bookkeeping (lease table, departure queue) must reproduce the
// service bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "api/churn.h"
#include "api/experiment.h"
#include "service/churn.h"
#include "service/lease_table.h"
#include "service/service.h"
#include "util/contract.h"
#include "util/rng.h"

namespace bil {
namespace {

using service::ChurnProfile;
using service::ChurnSpec;
using service::ChurnStream;
using service::NameLeaseTable;
using service::ServiceMetrics;

ChurnSpec make_spec(ChurnProfile profile, std::uint32_t horizon) {
  ChurnSpec spec;
  spec.profile = profile;
  spec.horizon_rounds = horizon;
  spec.arrival_permille = 10;
  // Small periods so the short test horizon still crosses several bursts
  // and a full diurnal cycle.
  spec.burst_period = 64;
  spec.ramp_period = 256;
  return spec;
}

api::CellConfig make_cell(std::uint32_t n, api::BackendKind backend) {
  api::CellConfig cell;
  cell.algorithm = harness::Algorithm::kBallsIntoLeaves;
  cell.n = n;
  cell.backend = backend;
  return cell;
}

// ---- Part 1: lease invariants under churn ----------------------------------

/// Shadows the lease lifecycle from observer events and fails the test the
/// moment either lease invariant breaks.
class LeaseAuditor : public service::ServiceObserver {
 public:
  void on_join(std::uint64_t client, std::uint64_t name,
               std::uint32_t round) override {
    EXPECT_EQ(name_of_.count(client), 0u)
        << "client " << client << " joined twice (round " << round << ")";
    const auto [it, inserted] = holder_of_.emplace(name, client);
    EXPECT_TRUE(inserted) << "name " << name << " handed to client " << client
                          << " while still leased to client " << it->second
                          << " (round " << round << ")";
    name_of_[client] = name;
    ++joins_;
  }

  void on_leave(std::uint64_t client, std::uint64_t name,
                std::uint32_t round) override {
    const auto it = name_of_.find(client);
    ASSERT_NE(it, name_of_.end())
        << "client " << client << " left without joining (round " << round
        << ")";
    EXPECT_EQ(it->second, name)
        << "client " << client << " released a name it never held (round "
        << round << ")";
    holder_of_.erase(it->second);
    name_of_.erase(it);
    ++leaves_;
  }

  void on_instance(std::uint32_t, std::uint32_t batch, std::uint32_t) override {
    EXPECT_GT(batch, 0u);
  }

  void on_resize(std::uint32_t, std::uint32_t old_size,
                 std::uint32_t new_size) override {
    EXPECT_NE(old_size, new_size);
  }

  [[nodiscard]] std::uint64_t joins() const { return joins_; }
  [[nodiscard]] std::uint64_t leaves() const { return leaves_; }
  [[nodiscard]] std::size_t live() const { return name_of_.size(); }

 private:
  std::map<std::uint64_t, std::uint64_t> name_of_;
  std::map<std::uint64_t, std::uint64_t> holder_of_;
  std::uint64_t joins_ = 0;
  std::uint64_t leaves_ = 0;
};

using ChurnGridParam = std::tuple<ChurnProfile, std::uint64_t /*seed*/>;

class ChurnLeaseGrid : public ::testing::TestWithParam<ChurnGridParam> {};

TEST_P(ChurnLeaseGrid, LeaseInvariantsHold) {
  const auto [profile, seed] = GetParam();
  const auto cell = make_cell(128, api::BackendKind::kAuto);
  const ChurnSpec spec = make_spec(profile, 512);

  LeaseAuditor auditor;
  const ServiceMetrics metrics =
      api::run_churn_cell(cell, spec, seed, /*engine_threads=*/1, &auditor);

  // The auditor saw every committed join and every departure the metrics
  // counted, plus the warm-start population's joins/leaves.
  EXPECT_GE(auditor.joins(), metrics.joined);
  EXPECT_GE(auditor.leaves(), metrics.departed);
  EXPECT_EQ(auditor.joins() - auditor.leaves(), auditor.live());
  EXPECT_EQ(metrics.live_final, auditor.live());
  EXPECT_GT(metrics.instances, 0u);
  EXPECT_LE(metrics.joined, metrics.arrivals);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, ChurnLeaseGrid,
    ::testing::Combine(::testing::Values(ChurnProfile::kPoisson,
                                         ChurnProfile::kBursty,
                                         ChurnProfile::kDiurnalRamp),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{7})));

// The cell the TSan job exercises: explicit engine backend with a parallel
// intra-round executor. Safety must hold and the auditor must see the same
// event stream as the single-threaded engine run.
TEST(ChurnService, LeaseInvariantsOnParallelEngine) {
  const auto cell = make_cell(64, api::BackendKind::kEngine);
  const ChurnSpec spec = make_spec(ChurnProfile::kBursty, 256);

  LeaseAuditor auditor;
  const ServiceMetrics wide =
      api::run_churn_cell(cell, spec, 3, /*engine_threads=*/4, &auditor);
  const ServiceMetrics narrow =
      api::run_churn_cell(cell, spec, 3, /*engine_threads=*/1);
  EXPECT_EQ(wide.joined, narrow.joined);
  EXPECT_EQ(wide.messages, narrow.messages);
  EXPECT_EQ(auditor.live(), wide.live_final);
}

// ---- Part 2: determinism ----------------------------------------------------

void expect_metrics_equal(const ServiceMetrics& a, const ServiceMetrics& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.joined, b.joined);
  EXPECT_EQ(a.departed, b.departed);
  EXPECT_EQ(a.instances, b.instances);
  EXPECT_EQ(a.instance_rounds, b.instance_rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.names_per_round, b.names_per_round);
  EXPECT_EQ(a.throughput_ratio, b.throughput_ratio);
  EXPECT_EQ(a.latency.count, b.latency.count);
  EXPECT_EQ(a.latency.mean, b.latency.mean);
  EXPECT_EQ(a.latency.median, b.latency.median);
  EXPECT_EQ(a.latency.p99, b.latency.p99);
  EXPECT_EQ(a.latency.max, b.latency.max);
  EXPECT_EQ(a.batch.mean, b.batch.mean);
  EXPECT_EQ(a.density_mean, b.density_mean);
  EXPECT_EQ(a.live_final, b.live_final);
  EXPECT_EQ(a.live_peak, b.live_peak);
  EXPECT_EQ(a.namespace_final, b.namespace_final);
  EXPECT_EQ(a.namespace_peak, b.namespace_peak);
  EXPECT_EQ(a.backlog_peak, b.backlog_peak);
  EXPECT_EQ(a.grows, b.grows);
  EXPECT_EQ(a.shrinks, b.shrinks);
}

TEST(ChurnService, MetricsInvariantAcrossEngineThreadWidths) {
  const auto cell = make_cell(64, api::BackendKind::kEngine);
  const ChurnSpec spec = make_spec(ChurnProfile::kPoisson, 256);
  const ServiceMetrics one = api::run_churn_cell(cell, spec, 5, 1);
  const ServiceMetrics four = api::run_churn_cell(cell, spec, 5, 4);
  expect_metrics_equal(one, four);
}

TEST(ChurnService, EngineAndFastSimAgree) {
  const ChurnSpec spec = make_spec(ChurnProfile::kDiurnalRamp, 256);
  const ServiceMetrics engine =
      api::run_churn_cell(make_cell(64, api::BackendKind::kEngine), spec, 9, 1);
  const ServiceMetrics fast = api::run_churn_cell(
      make_cell(64, api::BackendKind::kFastSim), spec, 9, 1);
  expect_metrics_equal(engine, fast);
}

TEST(ChurnService, RepeatRunsAreIdentical) {
  const auto cell = make_cell(128, api::BackendKind::kAuto);
  const ChurnSpec spec = make_spec(ChurnProfile::kBursty, 512);
  expect_metrics_equal(api::run_churn_cell(cell, spec, 11, 1),
                       api::run_churn_cell(cell, spec, 11, 1));
}

TEST(ChurnStreamTest, RandomAccessIsPure) {
  for (const auto profile :
       {ChurnProfile::kPoisson, ChurnProfile::kBursty,
        ChurnProfile::kDiurnalRamp}) {
    const ChurnSpec spec = make_spec(profile, 512);
    const ChurnStream stream(spec, 256, 42);
    // Forward sweep, reverse sweep, and re-query all agree.
    std::vector<std::uint32_t> forward;
    forward.reserve(spec.horizon_rounds);
    for (std::uint32_t r = 0; r < spec.horizon_rounds; ++r) {
      forward.push_back(stream.arrivals_at(r));
    }
    for (std::uint32_t r = spec.horizon_rounds; r-- > 0;) {
      EXPECT_EQ(stream.arrivals_at(r), forward[r]);
    }
    // A second stream built from the same triple is the same function.
    const ChurnStream again(spec, 256, 42);
    EXPECT_EQ(again.arrivals_at(17), forward[17]);
    // A different seed is a different stream (overwhelmingly likely that
    // at least one of 512 counts differs).
    const ChurnStream other(spec, 256, 43);
    bool any_differ = false;
    for (std::uint32_t r = 0; r < spec.horizon_rounds; ++r) {
      any_differ |= other.arrivals_at(r) != forward[r];
    }
    EXPECT_TRUE(any_differ);
  }
}

TEST(ChurnStreamTest, BurstRoundsSpike) {
  ChurnSpec spec = make_spec(ChurnProfile::kBursty, 512);
  spec.burst_permille = 200;  // mean spike of 51.2 on a base of 2.56
  const ChurnStream stream(spec, 256, 1);
  std::uint64_t burst_total = 0;
  std::uint64_t base_total = 0;
  std::uint32_t burst_rounds = 0;
  for (std::uint32_t r = 0; r < spec.horizon_rounds; ++r) {
    if (r % spec.burst_period == spec.burst_period - 1) {
      burst_total += stream.arrivals_at(r);
      ++burst_rounds;
    } else {
      base_total += stream.arrivals_at(r);
    }
  }
  ASSERT_GT(burst_rounds, 0u);
  const double burst_mean =
      static_cast<double>(burst_total) / burst_rounds;
  const double base_mean = static_cast<double>(base_total) /
                           (spec.horizon_rounds - burst_rounds);
  EXPECT_GT(burst_mean, 10.0 * base_mean);
}

TEST(ChurnService, LatencySummaryIsConsistent) {
  const auto cell = make_cell(128, api::BackendKind::kAuto);
  const ServiceMetrics metrics = api::run_churn_cell(
      cell, make_spec(ChurnProfile::kPoisson, 512), 1, 1);
  EXPECT_EQ(metrics.latency.count, metrics.joined);
  EXPECT_GE(metrics.latency.min, 1.0);
  EXPECT_LE(metrics.latency.min, metrics.latency.median);
  EXPECT_LE(metrics.latency.median, metrics.latency.p99);
  EXPECT_LE(metrics.latency.p99, metrics.latency.max);
  EXPECT_LE(metrics.latency.max, static_cast<double>(metrics.horizon));
  EXPECT_GT(metrics.throughput_ratio, 0.8);
  EXPECT_LT(metrics.throughput_ratio, 1.2);
}

// ---- Part 3: lease table & sampler units ------------------------------------

TEST(NameLeaseTableTest, AcquireHandsOutSmallestFreeAscending) {
  NameLeaseTable table(8);
  EXPECT_EQ(table.acquire(3), (std::vector<std::uint64_t>{1, 2, 3}));
  table.release(2);
  // 2 is free again and is the smallest; 4 fills in after it.
  EXPECT_EQ(table.acquire(2), (std::vector<std::uint64_t>{2, 4}));
  EXPECT_EQ(table.live(), 4u);
  EXPECT_EQ(table.free_count(), 4u);
  EXPECT_EQ(table.max_leased(), 4u);
  EXPECT_TRUE(table.is_leased(1));
  EXPECT_FALSE(table.is_leased(5));
}

TEST(NameLeaseTableTest, GrowAndShrink) {
  NameLeaseTable table(4);
  const auto names = table.acquire(3);  // 1,2,3 leased
  table.grow(16);
  EXPECT_EQ(table.namespace_size(), 16u);
  EXPECT_EQ(table.free_count(), 13u);
  // max_leased() == 3, so shrinking to 2 must refuse and change nothing.
  EXPECT_FALSE(table.try_shrink(2));
  EXPECT_EQ(table.namespace_size(), 16u);
  EXPECT_TRUE(table.try_shrink(4));
  EXPECT_EQ(table.namespace_size(), 4u);
  EXPECT_EQ(table.free_count(), 1u);
  for (const auto name : names) table.release(name);
  EXPECT_TRUE(table.try_shrink(1));
  EXPECT_EQ(table.namespace_size(), 1u);
}

TEST(NameLeaseTableTest, ContractViolations) {
  NameLeaseTable table(4);
  EXPECT_THROW((void)table.acquire(5), ContractViolation);
  EXPECT_THROW(table.release(1), ContractViolation);  // not leased
  EXPECT_THROW(table.release(9), ContractViolation);  // out of range
  EXPECT_THROW(table.grow(4), ContractViolation);     // not larger
  EXPECT_THROW((void)table.try_shrink(4), ContractViolation);  // not smaller
  EXPECT_THROW(NameLeaseTable(0), ContractViolation);
}

// The bitset table against a std::set model: a fixed-seed random mix of
// acquire, release (valid and invalid), grow and try_shrink, with every
// return value and accessor compared after every op. Start sizes straddle
// the 64-bit word boundaries, and grow/shrink targets are arbitrary, so
// partial last words of every fill level occur.
TEST(NameLeaseTableTest, MatchesSetModelAcrossWordBoundaries) {
  for (const std::uint32_t initial : {1U, 63U, 64U, 65U, 127U, 129U}) {
    SCOPED_TRACE("initial size " + std::to_string(initial));
    NameLeaseTable table(initial);
    std::uint32_t size = initial;
    std::set<std::uint64_t> leased;
    Rng rng(derive_seed(2024, 0, initial));

    for (int op = 0; op < 1500; ++op) {
      switch (rng.below(5)) {
        case 0:
        case 1: {  // acquire: the k smallest free names, ascending
          const auto free = static_cast<std::uint32_t>(size - leased.size());
          const auto k = static_cast<std::uint32_t>(
              rng.below(2) == 0 ? rng.between(0, std::min(free, 3U))
                                : rng.between(0, free));
          std::vector<std::uint64_t> expected;
          for (std::uint64_t name = 1; expected.size() < k; ++name) {
            if (leased.count(name) == 0) {
              expected.push_back(name);
              leased.insert(name);
            }
          }
          const std::vector<std::uint64_t> got = table.acquire(k);
          ASSERT_EQ(got, expected) << "op " << op;
          for (const std::uint64_t name : got) {
            ASSERT_LE(name, table.namespace_size());
          }
          EXPECT_THROW((void)table.acquire(free - k + 1), ContractViolation);
          break;
        }
        case 2: {  // release: a leased name, or any name that must throw
          const std::uint64_t name = rng.between(0, size + 65);
          if (leased.count(name) > 0) {
            table.release(name);
            leased.erase(name);
          } else {
            EXPECT_THROW(table.release(name), ContractViolation)
                << "name " << name << " op " << op;
          }
          break;
        }
        case 3: {  // grow by up to two words, capped to keep the model small
          if (size >= 1024) {
            break;
          }
          const auto target =
              static_cast<std::uint32_t>(size + rng.between(1, 130));
          table.grow(target);
          size = target;
          break;
        }
        default: {  // try_shrink to any smaller size
          if (size == 1) {
            EXPECT_THROW((void)table.try_shrink(1), ContractViolation);
            break;
          }
          const auto target =
              static_cast<std::uint32_t>(rng.between(1, size - 1));
          const bool fits = leased.empty() || *leased.rbegin() <= target;
          ASSERT_EQ(table.try_shrink(target), fits) << "op " << op;
          if (fits) {
            size = target;
          }
          break;
        }
      }

      ASSERT_EQ(table.namespace_size(), size) << "op " << op;
      ASSERT_EQ(table.live(), leased.size()) << "op " << op;
      ASSERT_EQ(table.free_count(), size - leased.size()) << "op " << op;
      ASSERT_EQ(table.max_leased(), leased.empty() ? 0 : *leased.rbegin())
          << "op " << op;
      for (std::uint64_t name = 0; name <= size + 65; ++name) {
        ASSERT_EQ(table.is_leased(name), leased.count(name) > 0)
            << "name " << name << " op " << op;
      }
    }
  }
}

// Names above namespace_size() share the last word with real names when the
// size is not a multiple of 64; they are never leasable or releasable.
TEST(NameLeaseTableTest, PartialLastWordStaysClosed) {
  for (const std::uint32_t size : {1U, 63U, 65U, 127U, 129U, 1000U}) {
    NameLeaseTable table(size);
    EXPECT_THROW(table.release(size + 1), ContractViolation);
    const std::vector<std::uint64_t> all = table.acquire(size);
    ASSERT_EQ(all.size(), size);
    EXPECT_EQ(all.back(), size);
    EXPECT_EQ(table.free_count(), 0u);
    EXPECT_THROW((void)table.acquire(1), ContractViolation);
    EXPECT_THROW(table.release(size + 1), ContractViolation);
    EXPECT_FALSE(table.is_leased(size + 1));
    EXPECT_EQ(table.max_leased(), size);
  }
}

service::InstanceRunner identity_runner() {
  return [](std::uint32_t participants, std::uint64_t) {
    service::InstanceOutcome outcome;
    outcome.rounds = 1;
    for (std::uint64_t rank = 1; rank <= participants; ++rank) {
      outcome.ranks.push_back(rank);
    }
    return outcome;
  };
}

// pow2_at_least(n) and the namespace doublings must stay inside uint32_t:
// an n whose namespace cannot double is refused up front, naming n.
TEST(ChurnService, RejectsNamespaceThatCannotDouble) {
  service::ServiceConfig config;
  config.churn = make_spec(ChurnProfile::kPoisson, 64);
  config.n = std::uint32_t{1} << 30;
  EXPECT_NO_THROW(service::RenamingService(config, identity_runner()));
  for (const std::uint32_t n :
       {(std::uint32_t{1} << 30) + 1, (std::uint32_t{1} << 31) + 1,
        std::numeric_limits<std::uint32_t>::max()}) {
    config.n = n;
    try {
      service::RenamingService service(config, identity_runner());
      ADD_FAILURE() << "n = " << n << " was accepted";
    } catch (const ContractViolation& error) {
      EXPECT_NE(std::string(error.what()).find(std::to_string(n)),
                std::string::npos)
          << error.what();
    }
  }
  config.n = 128;
  config.min_namespace = (std::uint32_t{1} << 30) + 1;
  EXPECT_THROW(service::RenamingService(config, identity_runner()),
               ContractViolation);
}

// A hold far beyond the horizon: no lease can expire in-window, and the
// departure calendar is sized by the horizon, not by 2 * hold buckets.
TEST(ChurnService, HugeHoldCompletesInBoundedMemory) {
  ChurnSpec spec = make_spec(ChurnProfile::kPoisson, 64);
  spec.hold_rounds = std::uint32_t{1} << 31;
  LeaseAuditor auditor;
  const ServiceMetrics metrics = api::run_churn_cell(
      make_cell(128, api::BackendKind::kFastSim), spec, 1, 1, &auditor);
  EXPECT_GT(metrics.joined, 0u);
  EXPECT_EQ(metrics.departed, 0u);
  EXPECT_EQ(auditor.leaves(), 0u);
  EXPECT_EQ(metrics.live_final, 128 + metrics.joined);
}

TEST(PoissonSamplerTest, MatchesMeanForSmallAndChunkedLambda) {
  for (const double lambda : {0.5, 4.0, 100.0}) {
    Rng rng(12345);
    std::uint64_t total = 0;
    constexpr int kSamples = 4000;
    for (int i = 0; i < kSamples; ++i) {
      total += service::sample_poisson(rng, lambda);
    }
    const double mean = static_cast<double>(total) / kSamples;
    EXPECT_NEAR(mean, lambda, 0.1 * lambda + 0.1)
        << "lambda = " << lambda;
  }
  Rng rng(1);
  EXPECT_EQ(service::sample_poisson(rng, 0.0), 0u);
}

// ---- Part 4: golden service cells ------------------------------------------

/// FNV-1a over every observer event, in delivery order: a tag per event kind
/// followed by the event's fields.
class EventHasher : public service::ServiceObserver {
 public:
  void on_join(std::uint64_t client, std::uint64_t name,
               std::uint32_t round) override {
    mix_all({1, client, name, round});
  }
  void on_leave(std::uint64_t client, std::uint64_t name,
                std::uint32_t round) override {
    mix_all({2, client, name, round});
  }
  void on_instance(std::uint32_t round, std::uint32_t batch,
                   std::uint32_t instance_rounds) override {
    mix_all({3, round, batch, instance_rounds});
  }
  void on_resize(std::uint32_t round, std::uint32_t old_size,
                 std::uint32_t new_size) override {
    mix_all({4, round, old_size, new_size});
  }

  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  void mix_all(std::initializer_list<std::uint64_t> values) {
    for (const std::uint64_t value : values) {
      for (int shift = 0; shift < 64; shift += 8) {
        hash_ ^= (value >> shift) & 0xffu;
        hash_ *= 0x100000001b3ull;
      }
    }
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Every ServiceMetrics field, doubles at round-trip precision, so string
/// equality is bit equality.
std::string render(const ServiceMetrics& m) {
  std::ostringstream out;
  out << std::setprecision(17);
  const auto summary = [&out](const stats::Summary& s) {
    out << '[' << s.count << ' ' << s.mean << ' ' << s.stddev << ' ' << s.min
        << ' ' << s.median << ' ' << s.p99 << ' ' << s.max << ']';
  };
  out << "seed=" << m.seed << " arrivals=" << m.arrivals
      << " joined=" << m.joined << " departed=" << m.departed
      << " instances=" << m.instances
      << " instance_rounds=" << m.instance_rounds
      << " messages=" << m.messages << " horizon=" << m.horizon
      << " names_per_round=" << m.names_per_round
      << " throughput_ratio=" << m.throughput_ratio << " latency=";
  summary(m.latency);
  out << " batch=";
  summary(m.batch);
  out << " density_mean=" << m.density_mean << " live_final=" << m.live_final
      << " live_peak=" << m.live_peak
      << " namespace_final=" << m.namespace_final
      << " namespace_peak=" << m.namespace_peak
      << " backlog_peak=" << m.backlog_peak << " grows=" << m.grows
      << " shrinks=" << m.shrinks;
  return out.str();
}

struct GoldenServiceCell {
  const char* label;
  ChurnProfile profile;
  std::uint32_t n;
  std::uint64_t seed;
  /// 0 = the spec's auto hold.
  std::uint32_t hold_rounds;
  std::uint32_t horizon;
  bool warm_start;
  /// The cell exists to exercise try_shrink; it must actually shrink.
  bool must_shrink;
  const char* metrics;
  std::uint64_t events_hash;
};

// Captured from the std::set lease table and priority-queue departure heap
// the driver used before its bitset table and departure calendar; those
// must reproduce every value. n = 1000 is not a multiple of 64, so the lease
// table's last word is partial; hold = 1 makes every lease one round long
// and the calendar two buckets wide.
constexpr GoldenServiceCell kGoldenServiceCells[] = {
    {"poisson_n128_seed1", ChurnProfile::kPoisson,
     128, 1, 0, 512, true, false,
     "seed=1 arrivals=635 joined=630 departed=633 instances=96 "
     "instance_rounds=512 messages=29947 horizon=512 "
     "names_per_round=1.23046875 throughput_ratio=0.9613037109375 "
     "latency=[630 8.0095238095238095 2.0579609497017644 3 8 13 13] "
     "batch=[96 6.5937499999999991 3.1139013438044838 1 6 14 14] "
     "density_mean=0.4824981689453125 live_final=125 live_peak=142 "
     "namespace_final=256 namespace_peak=256 backlog_peak=14 grows=1 "
     "shrinks=0",
     0x86bd882f93cd8154ull},
    {"poisson_n128_seed2", ChurnProfile::kPoisson,
     128, 2, 0, 512, true, false,
     "seed=2 arrivals=645 joined=641 departed=648 instances=104 "
     "instance_rounds=516 messages=28674 horizon=512 "
     "names_per_round=1.251953125 throughput_ratio=0.97808837890625 "
     "latency=[641 7.4695787831513263 2.1101158092742547 3 7 13 13] "
     "batch=[104 6.1923076923076907 3.3474433747450787 1 6 "
     "14.969999999999999 18] density_mean=0.51546478271484375 "
     "live_final=121 live_peak=164 namespace_final=256 "
     "namespace_peak=256 backlog_peak=18 grows=1 shrinks=0",
     0xc3252142565f48d7ull},
    {"poisson_n1000_seed1", ChurnProfile::kPoisson,
     1000, 1, 0, 512, true, false,
     "seed=1 arrivals=5046 joined=4958 departed=4985 instances=70 "
     "instance_rounds=514 messages=2733401 horizon=512 "
     "names_per_round=9.68359375 "
     "throughput_ratio=0.96835937500000002 latency=[4958 "
     "10.551835417507059 2.3151960611650564 7 11 15 17] batch=[70 "
     "71.614285714285728 13.296281333834987 8 72.5 "
     "97.930000000000007 100] density_mean=0.49089431762695312 "
     "live_final=973 live_peak=1185 namespace_final=2048 "
     "namespace_peak=2048 backlog_peak=100 grows=1 shrinks=0",
     0x67d54025f9fb1079ull},
    {"poisson_n1000_seed2", ChurnProfile::kPoisson,
     1000, 2, 0, 512, true, false,
     "seed=2 arrivals=5126 joined=5002 departed=5015 instances=71 "
     "instance_rounds=515 messages=2767913 horizon=512 "
     "names_per_round=9.76953125 "
     "throughput_ratio=0.97695312499999998 latency=[5002 "
     "10.487804878048781 2.2498308540283309 5 10 15 15] batch=[71 "
     "71.73239436619717 14.193517379905595 6 71 100.89999999999999 "
     "103] density_mean=0.50416946411132812 live_final=987 "
     "live_peak=1227 namespace_final=2048 namespace_peak=2048 "
     "backlog_peak=103 grows=1 shrinks=0",
     0x3440e98763eb2052ull},
    {"bursty_n128_seed1", ChurnProfile::kBursty,
     128, 1, 0, 512, true, false,
     "seed=1 arrivals=683 joined=674 departed=666 instances=96 "
     "instance_rounds=512 messages=36383 horizon=512 "
     "names_per_round=1.31640625 "
     "throughput_ratio=0.95391757246376807 latency=[674 "
     "8.0875370919881302 2.1565186130288381 3 8 13 13] batch=[96 "
     "7.0520833333333339 3.7342505530537791 1 6 17 17] "
     "density_mean=0.51094818115234375 live_final=136 live_peak=150 "
     "namespace_final=256 namespace_peak=256 backlog_peak=17 grows=1 "
     "shrinks=0",
     0x772ff075522e52caull},
    {"bursty_n128_seed2", ChurnProfile::kBursty,
     128, 2, 0, 512, true, false,
     "seed=2 arrivals=688 joined=676 departed=671 instances=100 "
     "instance_rounds=512 messages=34140 horizon=512 "
     "names_per_round=1.3203125 throughput_ratio=0.95674818840579701 "
     "latency=[676 7.556213017751479 2.057997554375484 3 7 13 13] "
     "batch=[100 6.7800000000000011 3.7351186207550509 1 6 "
     "18.010000000000005 19] density_mean=0.5391082763671875 "
     "live_final=133 live_peak=173 namespace_final=256 "
     "namespace_peak=256 backlog_peak=19 grows=1 shrinks=0",
     0x1d763b427c9569a4ull},
    {"bursty_n1000_seed1", ChurnProfile::kBursty,
     1000, 1, 0, 512, true, false,
     "seed=1 arrivals=5469 joined=5325 departed=5263 instances=70 "
     "instance_rounds=514 messages=3296344 horizon=512 "
     "names_per_round=10.400390625 "
     "throughput_ratio=0.96467391304347827 latency=[5325 "
     "10.525821596244132 2.2663422511992932 7 10 15 17] batch=[70 "
     "76.857142857142861 20.651199715499363 8 73.5 "
     "131.96000000000004 143] density_mean=0.52214717864990234 "
     "live_final=1062 live_peak=1221 namespace_final=2048 "
     "namespace_peak=2048 backlog_peak=143 grows=1 shrinks=0",
     0x5cfdc6cca1ab8a0eull},
    {"bursty_n1000_seed2", ChurnProfile::kBursty,
     1000, 2, 0, 512, true, false,
     "seed=2 arrivals=5486 joined=5312 departed=5268 instances=69 "
     "instance_rounds=515 messages=3412599 horizon=512 "
     "names_per_round=10.375 throughput_ratio=0.96231884057971018 "
     "latency=[5312 10.83847891566265 2.4318779363750371 5 11 16 17] "
     "batch=[69 78.304347826086982 20.779164018049489 6 74 "
     "126.83999999999992 135] density_mean=0.53007888793945312 "
     "live_final=1044 live_peak=1273 namespace_final=2048 "
     "namespace_peak=2048 backlog_peak=135 grows=1 shrinks=0",
     0x45458ed11f58b99aull},
    {"diurnal_n128_seed1", ChurnProfile::kDiurnalRamp,
     128, 1, 0, 512, true, false,
     "seed=1 arrivals=671 joined=671 departed=668 instances=88 "
     "instance_rounds=456 messages=52679 horizon=512 "
     "names_per_round=1.310546875 throughput_ratio=1.02386474609375 "
     "latency=[671 8.4634873323397919 2.4326312268885557 3 8 14 15] "
     "batch=[88 7.6250000000000018 6.0786275296055248 1 6.5 27 27] "
     "density_mean=0.5263824462890625 live_final=131 live_peak=197 "
     "namespace_final=256 namespace_peak=256 backlog_peak=27 grows=1 "
     "shrinks=0",
     0x64f8481fa9916017ull},
    {"diurnal_n128_seed2", ChurnProfile::kDiurnalRamp,
     128, 2, 0, 512, true, false,
     "seed=2 arrivals=646 joined=646 departed=639 instances=87 "
     "instance_rounds=451 messages=48376 horizon=512 "
     "names_per_round=1.26171875 throughput_ratio=0.9857177734375 "
     "latency=[646 8.4752321981424146 2.2609265148806483 3 8 13 13] "
     "batch=[87 7.4252873563218396 5.7458421446599015 1 6 "
     "23.140000000000001 24] density_mean=0.5311279296875 "
     "live_final=135 live_peak=194 namespace_final=256 "
     "namespace_peak=256 backlog_peak=24 grows=1 shrinks=0",
     0x47784003240d96b0ull},
    {"diurnal_n1000_seed1", ChurnProfile::kDiurnalRamp,
     1000, 1, 0, 512, true, false,
     "seed=1 arrivals=5089 joined=5087 departed=5032 instances=72 "
     "instance_rounds=510 messages=4221441 horizon=512 "
     "names_per_round=9.935546875 "
     "throughput_ratio=0.99355468749999998 latency=[5087 "
     "11.057008059760173 2.5827807728073471 5 11 17 17] batch=[72 "
     "70.680555555555543 49.956270000502109 2 71.5 175.7700000000001 "
     "185] density_mean=0.51278018951416016 live_final=1055 "
     "live_peak=1487 namespace_final=2048 namespace_peak=2048 "
     "backlog_peak=185 grows=1 shrinks=0",
     0x315aec0f59a84efaull},
    {"diurnal_n1000_seed2", ChurnProfile::kDiurnalRamp,
     1000, 2, 0, 512, true, false,
     "seed=2 arrivals=5083 joined=5077 departed=5020 instances=72 "
     "instance_rounds=510 messages=4146213 horizon=512 "
     "names_per_round=9.916015625 "
     "throughput_ratio=0.99160156249999998 latency=[5077 "
     "10.943470553476462 2.6773123810395014 5 11 17 19] batch=[72 "
     "70.597222222222243 48.772151983244314 2 62 178.03000000000003 "
     "183] density_mean=0.51947975158691406 live_final=1057 "
     "live_peak=1485 namespace_final=2048 namespace_peak=2048 "
     "backlog_peak=183 grows=1 shrinks=0",
     0x1678bbf1d01e8527ull},
    {"hold1_n128_seed3", ChurnProfile::kPoisson,
     128, 3, 1, 256, true, false,
     "seed=3 arrivals=321 joined=306 departed=434 instances=51 "
     "instance_rounds=255 messages=12292 horizon=256 "
     "names_per_round=1.1953125 throughput_ratio=0.933837890625 "
     "latency=[306 7.261437908496732 1.6782943794224114 3 7 11 12] "
     "batch=[51 6.1568627450980404 2.8661650267882886 1 6 14 16] "
     "density_mean=0.0225830078125 live_final=0 live_peak=128 "
     "namespace_final=64 namespace_peak=128 backlog_peak=16 grows=0 "
     "shrinks=1",
     0x2bef73d32e8297d0ull},
    {"diurnal_hold8_n1000_seed5", ChurnProfile::kDiurnalRamp,
     1000, 5, 8, 1024, true, true,
     "seed=5 arrivals=10235 joined=10231 departed=11210 "
     "instances=147 instance_rounds=1013 messages=8355301 "
     "horizon=1024 names_per_round=9.9912109375 "
     "throughput_ratio=0.99912109375000002 latency=[10231 "
     "10.841657706969016 2.5120916865768073 3 11 17 17] batch=[147 "
     "69.625850340136054 50.38525698757006 1 61 175.07999999999998 "
     "179] density_mean=0.25112342834472656 live_final=21 "
     "live_peak=1000 namespace_final=64 namespace_peak=1024 "
     "backlog_peak=179 grows=12 shrinks=16",
     0x52d94af4a93368faull},
};

class GoldenServiceGrid
    : public ::testing::TestWithParam<GoldenServiceCell> {};

TEST_P(GoldenServiceGrid, ReproducesPinnedMetricsAndEvents) {
  const GoldenServiceCell& golden = GetParam();
  ChurnSpec spec = make_spec(golden.profile, golden.horizon);
  spec.hold_rounds = golden.hold_rounds;
  spec.warm_start = golden.warm_start;
  EventHasher hasher;
  const ServiceMetrics metrics = api::run_churn_cell(
      make_cell(golden.n, api::BackendKind::kFastSim), spec, golden.seed, 1,
      &hasher);
  EXPECT_EQ(render(metrics), golden.metrics) << golden.label;
  if (golden.must_shrink) {
    EXPECT_GT(metrics.shrinks, 0u) << golden.label;
  }
  EXPECT_EQ(hasher.hash(), golden.events_hash)
      << golden.label << ": 0x" << std::hex << hasher.hash();
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, GoldenServiceGrid, ::testing::ValuesIn(kGoldenServiceCells),
    [](const ::testing::TestParamInfo<GoldenServiceCell>& info) {
      return std::string(info.param.label);
    });

}  // namespace
}  // namespace bil
