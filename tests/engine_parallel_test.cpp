// Cross-thread determinism of the intra-round parallel executor, plus unit
// coverage of util::ThreadPool and the round-scoped payload arena.
//
// The headline assertion: for every registered algorithm × every registered
// adversary at one (n, seed), the full RunResult — completion, rounds,
// per-process outcomes, and every metrics counter including the per-round
// traffic vector — is identical with engine_threads = 1 and with the
// maximum thread count. This is the executable form of the claim that
// intra-round parallelism is an identity-preserving optimization (processes
// are confined deterministic state machines; see sim/process.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "harness/runner.h"
#include "sim/engine.h"
#include "util/contract.h"
#include "util/thread_pool.h"
#include "wire/wire.h"

namespace bil {
namespace {

// At least 4 executor threads even on a 1-core machine, so the pool
// dispatch path (not the serial fallback) is what the comparison exercises.
std::uint32_t max_threads() {
  return std::max(4u, util::ThreadPool::hardware_threads());
}

// ---- util::ThreadPool -------------------------------------------------------

TEST(ThreadPool, CoversIndexSpaceExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> hits(1001);
  pool.parallel_chunks(hits.size(),
                       [&](std::uint32_t /*chunk*/, std::size_t begin,
                           std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           hits[i].fetch_add(1);
                         }
                       });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPool, ChunkBoundariesAreDeterministic) {
  util::ThreadPool pool(3);
  for (std::size_t count : {0u, 1u, 2u, 3u, 7u, 100u}) {
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> ranges(2);
    for (auto& observed : ranges) {
      observed.assign(3, std::pair<std::size_t, std::size_t>{0, 0});
      pool.parallel_chunks(count, [&](std::uint32_t chunk, std::size_t begin,
                                      std::size_t end) {
        observed[chunk] = {begin, end};
      });
    }
    EXPECT_EQ(ranges[0], ranges[1]) << "count=" << count;
  }
}

TEST(ThreadPool, FewerItemsThanThreadsStillRuns) {
  util::ThreadPool pool(8);
  std::atomic<int> ran{0};
  pool.parallel_chunks(2, [&](std::uint32_t /*chunk*/, std::size_t begin,
                              std::size_t end) {
    ran.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, PropagatesChunkExceptions) {
  util::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_chunks(100,
                           [&](std::uint32_t /*chunk*/, std::size_t begin,
                               std::size_t /*end*/) {
                             BIL_REQUIRE(begin != 0, "chunk zero fails");
                           }),
      ContractViolation);
  // The pool must stay usable after an exceptional region.
  std::atomic<int> ran{0};
  pool.parallel_chunks(8, [&](std::uint32_t, std::size_t begin,
                              std::size_t end) {
    ran.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  int ran = 0;
  pool.parallel_chunks(5, [&](std::uint32_t chunk, std::size_t begin,
                              std::size_t end) {
    EXPECT_EQ(chunk, 0u);
    ran += static_cast<int>(end - begin);
  });
  EXPECT_EQ(ran, 5);
}

// ---- sim::PayloadArena ------------------------------------------------------

TEST(PayloadArena, HandlesAreStableAcrossGrowth) {
  sim::PayloadArena arena;
  std::vector<const wire::Buffer*> handles;
  for (std::uint64_t i = 0; i < 100; ++i) {
    wire::Writer writer;
    writer.varint(i);
    handles.push_back(arena.intern(std::move(writer).take()));
  }
  EXPECT_EQ(arena.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    wire::Reader reader(*handles[i]);
    EXPECT_EQ(reader.varint(), i);
  }
}

TEST(PayloadArena, ResetRecyclesSlots) {
  sim::PayloadArena arena;
  wire::Writer first;
  first.u32(7);
  const wire::Buffer* slot = arena.intern(std::move(first).take());
  arena.reset();
  EXPECT_EQ(arena.size(), 0u);
  wire::Writer second;
  second.u32(9);
  const wire::Buffer* reused = arena.intern(std::move(second).take());
  // Same slot object, new contents — the round-scoped lifetime contract.
  EXPECT_EQ(slot, reused);
  wire::Reader reader(*reused);
  EXPECT_EQ(reader.u32(), 9u);
}

// ---- cross-thread determinism ----------------------------------------------

harness::RunSummary run_with_threads(harness::RunConfig config,
                                     std::uint32_t engine_threads) {
  config.engine_threads = engine_threads;
  return harness::run_renaming(config);
}

void expect_identical_results(const harness::RunConfig& config,
                              const char* what) {
  const harness::RunSummary serial = run_with_threads(config, 1);
  const harness::RunSummary parallel =
      run_with_threads(config, max_threads());
  EXPECT_EQ(serial.completed, parallel.completed) << what;
  EXPECT_EQ(serial.rounds, parallel.rounds) << what;
  EXPECT_EQ(serial.total_rounds, parallel.total_rounds) << what;
  EXPECT_EQ(serial.crashes, parallel.crashes) << what;
  EXPECT_EQ(serial.raw.outcomes == parallel.raw.outcomes, true)
      << what << " — per-process outcomes diverged";
  EXPECT_EQ(serial.raw.metrics == parallel.raw.metrics, true)
      << what << " — metrics (incl. per-round traffic) diverged";
}

TEST(EngineParallel, EveryAlgorithmEveryAdversaryIsThreadCountInvariant) {
  constexpr std::uint32_t kN = 48;
  constexpr std::uint64_t kSeed = 0xD15EA5E;
  harness::AdversarySpec knobs{.delay = {.max_delay = 4, .gst = 8}};
  knobs.crashes = kN / 4;
  knobs.per_round = 2;
  knobs.byzantine = kN / 8;
  // Bound the equivocator: unbounded per-recipient path forgery defers
  // honest termination indefinitely (core/byzantine_adversary.h).
  knobs.byzantine_rounds = 6;
  for (const api::AlgorithmInfo& algorithm : api::algorithm_registry()) {
    for (const api::AdversaryInfo& adversary : api::adversary_registry()) {
      if (adversary.needs_tree && !algorithm.fast_sim_capable()) {
        continue;  // tree adversaries require a tree-based algorithm
      }
      harness::RunConfig config;
      config.algorithm = algorithm.algorithm;
      config.n = kN;
      config.seed = kSeed;
      config.adversary = adversary.make(knobs);
      const std::string what =
          std::string(algorithm.name) + " / " + adversary.name;
      expect_identical_results(config, what.c_str());
    }
  }
}

TEST(EngineParallel, EagerLeafTerminationIsThreadCountInvariant) {
  harness::RunConfig config;
  config.algorithm = harness::Algorithm::kBallsIntoLeaves;
  config.n = 64;
  config.seed = 77;
  config.termination = core::TerminationMode::kEagerLeaf;
  config.adversary = {.kind = harness::AdversaryKind::kOblivious,
                      .crashes = 16};
  expect_identical_results(config, "bil eager-leaf / oblivious");
}

TEST(EngineParallel, ZeroResolvesToHardwareThreads) {
  harness::RunConfig config;
  config.algorithm = harness::Algorithm::kBallsIntoLeaves;
  config.n = 32;
  config.seed = 5;
  const harness::RunSummary serial = run_with_threads(config, 1);
  const harness::RunSummary auto_threads = run_with_threads(config, 0);
  EXPECT_EQ(serial.raw.outcomes == auto_threads.raw.outcomes, true);
  EXPECT_EQ(serial.raw.metrics == auto_threads.raw.metrics, true);
}

// Regression for a data race found in review: an alive *unicasting* sender
// is a special sender, and custom-inbox assembly used to read
// status_[sender] from every worker while the sender's own worker could be
// writing status_[sender] = kHalted from note_progress. The crashed flag is
// now snapshotted serially (special_sender_crashed_); this unicast+halt
// protocol — which no registered algorithm exercises — pins the pattern so
// the TSan CI job keeps watching it.
TEST(EngineParallel, UnicastingHaltingProtocolIsThreadCountInvariant) {
  struct Ring final : sim::ProcessBase {
    Ring(sim::ProcessId id, std::uint32_t n) : id_(id), n_(n) {}
    void on_send(sim::RoundNumber /*round*/, sim::Outbox& out) override {
      wire::Writer writer;
      writer.varint(id_);
      out.send((id_ + 1) % n_, std::move(writer).take());
    }
    void on_receive(sim::RoundNumber round,
                    std::span<const sim::Envelope> inbox) override {
      for (const sim::Envelope& envelope : inbox) {
        wire::Reader reader(envelope.bytes());
        last_seen_ = reader.varint();
      }
      if (round >= 2) {
        decide(id_ + 1);
        halt();
      }
    }
    sim::ProcessId id_;
    std::uint32_t n_;
    std::uint64_t last_seen_ = 0;
  };
  static constexpr std::uint32_t kN = 64;
  const auto run_ring = [](std::uint32_t threads) {
    std::vector<std::unique_ptr<sim::ProcessBase>> processes;
    for (sim::ProcessId id = 0; id < kN; ++id) {
      processes.push_back(std::make_unique<Ring>(id, kN));
    }
    sim::Engine engine(
        sim::EngineConfig{.num_processes = kN, .max_crashes = 0,
                          .num_threads = threads},
        std::move(processes), nullptr);
    return engine.run();
  };
  const sim::RunResult serial = run_ring(1);
  const sim::RunResult parallel = run_ring(max_threads());
  EXPECT_TRUE(serial.completed);
  EXPECT_EQ(serial.outcomes == parallel.outcomes, true);
  EXPECT_EQ(serial.metrics == parallel.metrics, true);
}

// A traced run silently falls back to serial execution (trace events must
// stream in id order): with a sink attached the engine must not spawn
// workers at all, and the trace stream must be complete.
TEST(EngineParallel, TraceForcesSerialFallback) {
  struct OneShot final : sim::ProcessBase {
    explicit OneShot(std::uint64_t name) : name_(name) {}
    void on_send(sim::RoundNumber /*round*/, sim::Outbox& out) override {
      wire::Writer writer;
      writer.u8(1);
      out.broadcast(std::move(writer).take());
    }
    void on_receive(sim::RoundNumber /*round*/,
                    std::span<const sim::Envelope> /*inbox*/) override {
      decide(name_);
      halt();
    }
    std::uint64_t name_;
  };
  std::vector<std::unique_ptr<sim::ProcessBase>> processes;
  for (std::uint64_t id = 0; id < 8; ++id) {
    processes.push_back(std::make_unique<OneShot>(id + 1));
  }
  sim::CountingTrace trace;
  sim::Engine engine(
      sim::EngineConfig{.num_processes = 8,
                        .max_crashes = 0,
                        .num_threads = 8,
                        .trace = &trace},
      std::move(processes), nullptr);
  // 8 processes and 8 requested threads, but the sink pins the executor to
  // one — this is what keeps the trace calls single-threaded.
  EXPECT_EQ(engine.num_threads(), 1u);
  const sim::RunResult result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(trace.rounds, result.rounds);
  EXPECT_EQ(trace.sends, 8u);
  EXPECT_EQ(trace.decisions, 8u);
  EXPECT_EQ(trace.halts, 8u);
}

// Without a trace sink the same configuration must actually go wide.
TEST(EngineParallel, ResolvedWidthMatchesRequest) {
  std::vector<std::unique_ptr<sim::ProcessBase>> processes;
  struct Quiet final : sim::ProcessBase {
    void on_send(sim::RoundNumber /*round*/, sim::Outbox& /*out*/) override {
      decide(1);
      halt();
    }
    void on_receive(sim::RoundNumber /*round*/,
                    std::span<const sim::Envelope> /*inbox*/) override {}
  };
  processes.push_back(std::make_unique<Quiet>());
  processes.push_back(std::make_unique<Quiet>());
  const sim::Engine engine(
      sim::EngineConfig{.num_processes = 2, .max_crashes = 0,
                        .num_threads = 8},
      std::move(processes), nullptr);
  // Clamped to n = 2, not the requested 8; no trace, so the pool exists.
  EXPECT_EQ(engine.num_threads(), 2u);
}

}  // namespace
}  // namespace bil
