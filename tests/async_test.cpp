// Tests for delay scheduling (sim/scheduler.h through Engine::step()):
// bit-identity of the d = 1 bounded-delay schedule with the lock-step
// engine, thread-width invariance, tick bounds under bounded delay and
// partial synchrony (GST), timeout-based early termination and its
// overflow-free "never" setting, the clean capped exit under a starved
// delivery schedule, tracing on delay runs, and the layer diagnostics
// (make_adversary / make_scheduler / fast-sim routing) for the delay kinds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "api/backend.h"
#include "api/registry.h"
#include "core/seeds.h"
#include "harness/runner.h"
#include "search/contract.h"
#include "sim/engine.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "util/contract.h"
#include "util/thread_pool.h"
#include "wire/wire.h"

namespace bil {
namespace {

// ---- helpers ----------------------------------------------------------------

harness::RunConfig base_config(std::uint32_t n, std::uint64_t seed) {
  harness::RunConfig config;
  config.algorithm = harness::Algorithm::kBallsIntoLeaves;
  config.n = n;
  config.seed = seed;
  return config;
}

harness::AdversarySpec bounded_delay(std::uint32_t max_delay,
                                     sim::VirtualTime timeout = 0) {
  return harness::AdversarySpec{
      .kind = harness::AdversaryKind::kBoundedDelay,
      .delay = {.max_delay = max_delay, .gst = 0, .timeout = timeout}};
}

harness::AdversarySpec gst_adversary(sim::VirtualTime gst,
                                     std::uint32_t max_delay = 4,
                                     sim::VirtualTime timeout = 0) {
  return harness::AdversarySpec{
      .kind = harness::AdversaryKind::kGst,
      .delay = {.max_delay = max_delay, .gst = gst, .timeout = timeout}};
}

void expect_identical(const harness::RunSummary& a,
                      const harness::RunSummary& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
  ASSERT_EQ(a.raw.outcomes.size(), b.raw.outcomes.size());
  for (std::size_t i = 0; i < a.raw.outcomes.size(); ++i) {
    EXPECT_EQ(a.raw.outcomes[i].name, b.raw.outcomes[i].name) << "ball " << i;
    EXPECT_EQ(a.raw.outcomes[i].decide_round, b.raw.outcomes[i].decide_round)
        << "ball " << i;
  }
}

// ---- lockstep bit-identity --------------------------------------------------

// d = 1 delivers every batch exactly one tick after the send — the
// synchronous schedule — and consumes no scheduling randomness, so the
// delay run must reproduce the lock-step engine's full result:
// same rounds, same traffic, same names, same per-ball decide rounds.
TEST(AsyncEngine, BoundedDelayOneIsBitIdenticalToSynchronous) {
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    harness::RunConfig sync = base_config(64, seed);
    harness::RunConfig async = base_config(64, seed);
    async.adversary = bounded_delay(1);
    expect_identical(harness::run_renaming(sync),
                     harness::run_renaming(async));
  }
}

// Same check across the GST boundary: after the stabilization tick the GST
// scheduler is the synchronous schedule, so gst = 0 (stabilized from the
// start) is also bit-identical to the lock-step run.
TEST(AsyncEngine, GstZeroIsBitIdenticalToSynchronous) {
  harness::RunConfig sync = base_config(64, 5);
  harness::RunConfig async = base_config(64, 5);
  async.adversary = gst_adversary(/*gst=*/0, /*max_delay=*/4);
  expect_identical(harness::run_renaming(sync), harness::run_renaming(async));
}

// ---- determinism and thread-width invariance --------------------------------

TEST(AsyncEngine, AsyncRunsAreDeterministic) {
  for (const harness::AdversarySpec& spec :
       {bounded_delay(4), gst_adversary(8)}) {
    harness::RunConfig config = base_config(128, 11);
    config.adversary = spec;
    const harness::RunSummary first = harness::run_renaming(config);
    const harness::RunSummary second = harness::run_renaming(config);
    expect_identical(first, second);
  }
}

// Delay rounds fan their sends and deliveries out over the engine's pool
// like lock-step rounds (only the tick bookkeeping and on_timeout stay
// serial), so any engine_threads width must produce the same result. At
// least 4 workers, so the pool runs even on a single-core host.
TEST(AsyncEngine, ThreadWidthDoesNotChangeAsyncResults) {
  for (const harness::AdversarySpec& spec :
       {bounded_delay(4), gst_adversary(8), bounded_delay(6, /*timeout=*/2)}) {
    harness::RunConfig serial = base_config(128, 3);
    serial.adversary = spec;
    serial.engine_threads = 1;
    harness::RunConfig wide = base_config(128, 3);
    wide.adversary = spec;
    wide.engine_threads =
        std::max(4u, bil::util::ThreadPool::hardware_threads());
    expect_identical(harness::run_renaming(serial),
                     harness::run_renaming(wide));
  }
}

// ---- tick bounds ------------------------------------------------------------

// Under delay bound d every protocol round spans at most d ticks, so the
// async run's virtual time is at most d times the synchronous round count.
TEST(AsyncEngine, BoundedDelayTicksStayWithinDelayFactor) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    harness::RunConfig sync = base_config(256, seed);
    const harness::RunSummary sync_summary = harness::run_renaming(sync);

    harness::RunConfig async = base_config(256, seed);
    async.adversary = bounded_delay(4);
    const harness::RunSummary async_summary = harness::run_renaming(async);
    EXPECT_TRUE(async_summary.completed);
    EXPECT_LE(async_summary.raw.rounds, 4u * sync_summary.raw.rounds);
    // Delays reorder nothing at batch granularity: the protocol trajectory
    // (and hence its traffic) is the synchronous one, only the clock moves.
    EXPECT_EQ(async_summary.messages_delivered,
              sync_summary.messages_delivered);
  }
}

// Partial synchrony property: from the stabilization tick on, delivery is
// synchronous, so total virtual time obeys GST + the synchronous
// O(log log n) contract band (search/contract.h) at every size.
TEST(AsyncEngine, GstRunsObeyContractBoundAfterStabilization) {
  constexpr sim::VirtualTime kGst = 8;
  for (std::uint32_t n : {64u, 256u, 1024u}) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      harness::RunConfig config = base_config(n, seed);
      config.adversary = gst_adversary(kGst);
      const harness::RunSummary summary = harness::run_renaming(config);
      EXPECT_TRUE(summary.completed);
      EXPECT_LE(static_cast<double>(summary.raw.rounds),
                static_cast<double>(kGst) + search::loglog_round_bound(n))
          << "n=" << n << " seed=" << seed;
    }
  }
}

// ---- timeout-based early termination ----------------------------------------

// With a timeout budget, a ball already parked at a leaf decides when the
// round's delivery is late instead of waiting out the delay. The run must
// still validate (run_renaming checks uniqueness/tightness) and can only
// get faster, never slower.
TEST(AsyncEngine, TimeoutDecidesLeafBallsEarly) {
  for (std::uint64_t seed : {1u, 9u}) {
    harness::RunConfig plain = base_config(128, seed);
    plain.adversary = bounded_delay(6);
    const harness::RunSummary without = harness::run_renaming(plain);

    harness::RunConfig timed = base_config(128, seed);
    timed.adversary = bounded_delay(6, /*timeout=*/2);
    const harness::RunSummary with = harness::run_renaming(timed);

    EXPECT_TRUE(with.completed);
    EXPECT_LE(with.rounds, without.rounds);
  }
}

// A timeout no round can reach must never fire, even at the type's
// maximum, where now + timeout would wrap.
TEST(AsyncEngine, MaximalTimeoutNeverFires) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    harness::RunConfig plain = base_config(128, seed);
    plain.adversary = bounded_delay(6);
    harness::RunConfig never = base_config(128, seed);
    never.adversary =
        bounded_delay(6, std::numeric_limits<sim::VirtualTime>::max());
    expect_identical(harness::run_renaming(plain),
                     harness::run_renaming(never));
  }
}

// ---- round cap under starvation ----------------------------------------------

/// A scheduler that starves delivery: every batch is pushed far beyond any
/// reasonable cap. The engine must end the run cleanly at max_rounds ticks
/// with completed = false — not loop, not throw.
class StarvingScheduler final : public sim::DeliveryScheduler {
 public:
  explicit StarvingScheduler(sim::VirtualTime timeout) : timeout_(timeout) {}

  [[nodiscard]] sim::VirtualTime deliver_at(
      const sim::SendBatch& batch) override {
    return batch.send_tick + 1000000;
  }
  [[nodiscard]] sim::VirtualTime timeout_ticks() const noexcept override {
    return timeout_;
  }

 private:
  sim::VirtualTime timeout_;
};

/// Broadcasts every round and never halts on its own — keeps the protocol
/// running so only the cap can end it. Counts its on_timeout calls.
class ChattyProcess final : public sim::ProcessBase {
 public:
  void on_send(sim::RoundNumber /*round*/, sim::Outbox& out) override {
    wire::Writer writer;
    writer.varint(1);
    out.broadcast(std::move(writer).take());
  }
  void on_receive(sim::RoundNumber /*round*/,
                  std::span<const sim::Envelope> /*inbox*/) override {}
  void on_timeout(sim::RoundNumber /*round*/) override { ++timeouts; }

  int timeouts = 0;
};

// The timeout check runs before the cap check, so a round that starves
// past the cap still times out first — exactly once.
TEST(AsyncEngine, StarvedDeliveryHitsTickCapCleanly) {
  constexpr std::uint32_t kN = 4;
  for (const sim::VirtualTime timeout : {0u, 5u}) {
    std::vector<std::unique_ptr<sim::ProcessBase>> processes;
    for (std::uint32_t i = 0; i < kN; ++i) {
      processes.push_back(std::make_unique<ChattyProcess>());
    }
    sim::Engine engine(sim::EngineConfig{.num_processes = kN},
                       std::move(processes),
                       std::make_unique<StarvingScheduler>(timeout));
    const sim::RunResult result = engine.run();
    EXPECT_FALSE(result.completed);
    // max_rounds = 0 resolves to the documented default 16n + 64, enforced
    // in virtual-time ticks.
    EXPECT_EQ(result.rounds, 16 * kN + 64);
    for (sim::ProcessId id = 0; id < kN; ++id) {
      EXPECT_EQ(
          dynamic_cast<const ChattyProcess&>(engine.process(id)).timeouts,
          timeout > 0 ? 1 : 0)
          << "timeout=" << timeout << " process " << id;
    }
  }
}

// ---- layer contracts and diagnostics ----------------------------------------

// Delay adversaries assume the DeliveryScheduler role; delay runs are
// crash-free by contract, so combining a delay kind with a crash or
// Byzantine budget must fail loudly at scheduler construction.
TEST(AsyncLayers, MakeSchedulerRejectsFailureBudgets) {
  harness::AdversarySpec crashing = bounded_delay(4);
  crashing.crashes = 2;
  EXPECT_THROW((void)harness::make_scheduler(crashing, 16, 1),
               ContractViolation);

  harness::AdversarySpec byzantine = gst_adversary(8);
  byzantine.byzantine = 1;
  EXPECT_THROW((void)harness::make_scheduler(byzantine, 16, 1),
               ContractViolation);
}

TEST(AsyncLayers, MakeAdversaryRejectsDelayKinds) {
  EXPECT_THROW((void)harness::make_adversary(bounded_delay(4), 16, 1),
               ContractViolation);
}

// Delay rounds run through the same step() as lock-step rounds, trace
// hooks included: a traced delay run changes nothing, and it begins one
// trace round per protocol round, not per tick.
TEST(AsyncLayers, TracedDelayRunMatchesTheUntracedRun) {
  harness::RunConfig plain = base_config(16, 1);
  plain.adversary = bounded_delay(4);
  const harness::RunSummary untraced = harness::run_renaming(plain);

  sim::CountingTrace trace;
  harness::RunConfig traced_config = plain;
  traced_config.trace = &trace;
  const harness::RunSummary traced = harness::run_renaming(traced_config);

  expect_identical(untraced, traced);
  EXPECT_EQ(trace.rounds, traced.raw.metrics.per_round.size());
  EXPECT_LT(trace.rounds, traced.raw.rounds);
  EXPECT_EQ(trace.decisions, 16u);
}

// Registry metadata: the delay kinds are async-only and engine-only, and
// the fast-sim diagnostic for them is actionable (names the engine).
TEST(AsyncLayers, RegistryAndFastSimDiagnostics) {
  for (harness::AdversaryKind kind : {harness::AdversaryKind::kBoundedDelay,
                                      harness::AdversaryKind::kGst}) {
    const api::AdversaryInfo& info = api::adversary_info(kind);
    EXPECT_EQ(info.fault_model, harness::FaultModel::kDelay);
    EXPECT_EQ(info.timing(), "async-only");
    EXPECT_FALSE(info.fast_sim_capable());

    api::CellConfig cell;
    cell.n = 64;
    cell.adversary = info.make(
        harness::AdversarySpec{.delay = {.max_delay = 4, .gst = 8}});
    const std::string diagnostic = api::fast_sim_incompatibility(cell);
    EXPECT_NE(diagnostic.find("engine"), std::string::npos) << diagnostic;
    // kAuto must route delay cells to the engine, never the fast path.
    EXPECT_EQ(api::select_backend(cell), api::BackendKind::kEngine);
  }
  // The synchronous kinds keep timing "sync".
  EXPECT_EQ(api::adversary_info(harness::AdversaryKind::kNone).timing(),
            "sync");
}

}  // namespace
}  // namespace bil
