// Tests for the event-driven asynchronous executor (sim/event_queue.h,
// sim/scheduler.h, Engine::run_async): deterministic event ordering,
// bit-identity of the d = 1 bounded-delay schedule with the lock-step
// engine, thread-width invariance, tick bounds under bounded delay and
// partial synchrony (GST), timeout-based early termination, the clean
// capped exit under a starved delivery schedule, and the layer diagnostics
// (make_adversary / make_scheduler / fast-sim routing) for the delay kinds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/backend.h"
#include "api/registry.h"
#include "core/seeds.h"
#include "harness/runner.h"
#include "search/contract.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "util/contract.h"
#include "util/thread_pool.h"
#include "wire/wire.h"

namespace bil {
namespace {

// ---- event queue ------------------------------------------------------------

TEST(EventQueue, PopsByTimeThenSenderThenSeq) {
  sim::EventQueue queue;
  queue.push({.time = 5, .sender = 2, .seq = 9, .round = 0});
  queue.push({.time = 3, .sender = 7, .seq = 8, .round = 0});
  queue.push({.time = 5, .sender = 2, .seq = 4, .round = 0});
  queue.push({.time = 5, .sender = 0, .seq = 6, .round = 0});
  queue.push({.time = 3, .sender = 1, .seq = 7, .round = 0});

  std::vector<std::uint64_t> seqs;
  while (!queue.empty()) {
    seqs.push_back(queue.pop().seq);
  }
  // (3,1,7) (3,7,8) (5,0,6) (5,2,4) (5,2,9)
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{7, 8, 6, 4, 9}));
}

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
// event-queue executor must reproduce the lock-step engine's full result:
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

// ---- round cap under starvation ----------------------------------------------

/// A scheduler that starves delivery: every batch is pushed far beyond any
/// reasonable cap. The engine must end the run cleanly at max_rounds ticks
/// with completed = false — not loop, not throw.
class StarvingScheduler final : public sim::DeliveryScheduler {
 public:
  [[nodiscard]] sim::VirtualTime deliver_at(
      const sim::SendBatch& batch) override {
    return batch.send_tick + 1000000;
  }
};

/// Broadcasts every round and never halts on its own — keeps the protocol
/// running so only the cap can end it.
class ChattyProcess final : public sim::ProcessBase {
 public:
  void on_send(sim::RoundNumber /*round*/, sim::Outbox& out) override {
    wire::Writer writer;
    writer.varint(1);
    out.broadcast(std::move(writer).take());
  }
  void on_receive(sim::RoundNumber /*round*/,
                  std::span<const sim::Envelope> /*inbox*/) override {}
};

TEST(AsyncEngine, StarvedDeliveryHitsTickCapCleanly) {
  constexpr std::uint32_t kN = 4;
  std::vector<std::unique_ptr<sim::ProcessBase>> processes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    processes.push_back(std::make_unique<ChattyProcess>());
  }
  sim::Engine engine(sim::EngineConfig{.num_processes = kN},
                     std::move(processes),
                     std::make_unique<StarvingScheduler>());
  const sim::RunResult result = engine.run();
  EXPECT_FALSE(result.completed);
  // max_rounds = 0 resolves to the documented default 16n + 64, enforced in
  // virtual-time ticks on the async path.
  EXPECT_EQ(result.rounds, 16 * kN + 64);
}

// ---- layer contracts and diagnostics ----------------------------------------

// Delay adversaries assume the DeliveryScheduler role; the event-driven
// path is crash-free by contract, so combining a delay kind with a crash or
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

// The trace sink records the lock-step schedule; the async path has no
// trace hook, and must say so rather than silently dropping events.
TEST(AsyncLayers, TraceIsRejectedOnTheAsyncPath) {
  sim::TextTrace trace;
  harness::RunConfig config = base_config(16, 1);
  config.adversary = bounded_delay(4);
  config.trace = &trace;
  EXPECT_THROW((void)harness::run_renaming(config), ContractViolation);
}

// Registry metadata: the delay kinds are async-only and engine-only, and
// the fast-sim diagnostic for them is actionable (names the engine).
TEST(AsyncLayers, RegistryAndFastSimDiagnostics) {
  for (harness::AdversaryKind kind : {harness::AdversaryKind::kBoundedDelay,
                                      harness::AdversaryKind::kGst}) {
    const api::AdversaryInfo& info = api::adversary_info(kind);
    EXPECT_EQ(info.fault_model, "delay");
    EXPECT_EQ(info.timing, "async-only");
    EXPECT_FALSE(info.fast_sim_capable);

    api::CellConfig cell;
    cell.n = 64;
    cell.adversary = info.make(api::AdversaryKnobs{});
    const std::string diagnostic = api::fast_sim_incompatibility(cell);
    EXPECT_NE(diagnostic.find("engine"), std::string::npos) << diagnostic;
    // kAuto must route delay cells to the engine, never the fast path.
    EXPECT_EQ(api::select_backend(cell), api::BackendKind::kEngine);
  }
  // The synchronous kinds keep timing "sync".
  EXPECT_EQ(api::adversary_info(harness::AdversaryKind::kNone).timing, "sync");
}

}  // namespace
}  // namespace bil
