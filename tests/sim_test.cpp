// Unit tests for the synchronous engine: lock-step delivery, crash
// semantics with adversary-chosen subsets, halting, metrics, run
// validation, and the decode cache's per-span memo behind delivery classes.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <memory>
#include <vector>

#include "sim/adversaries.h"
#include "sim/decode_cache.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "util/contract.h"
#include "wire/wire.h"

namespace bil::sim {
namespace {

wire::Buffer payload_of(std::uint64_t value) {
  wire::Writer writer;
  writer.varint(value);
  return std::move(writer).take();
}

std::uint64_t value_of(const Envelope& envelope) {
  wire::Reader reader(envelope.bytes());
  return reader.varint();
}

/// Broadcasts its id every round and records everything it receives.
class EchoProcess final : public ProcessBase {
 public:
  explicit EchoProcess(ProcessId id, RoundNumber halt_after = 1000)
      : id_(id), halt_after_(halt_after) {}

  void on_send(RoundNumber /*round*/, Outbox& out) override {
    out.broadcast(payload_of(id_));
  }

  void on_receive(RoundNumber round,
                  std::span<const Envelope> inbox) override {
    received_.emplace_back();
    for (const Envelope& envelope : inbox) {
      received_.back().push_back(value_of(envelope));
    }
    if (round + 1 >= halt_after_) {
      decide(id_ + 1);
      halt();
    }
  }

  [[nodiscard]] const std::vector<std::vector<std::uint64_t>>& received()
      const noexcept {
    return received_;
  }

 private:
  ProcessId id_;
  RoundNumber halt_after_;
  std::vector<std::vector<std::uint64_t>> received_;
};

/// Sends one unicast to (id+1) mod n each round.
class RingProcess final : public ProcessBase {
 public:
  RingProcess(ProcessId id, std::uint32_t n) : id_(id), n_(n) {}

  void on_send(RoundNumber /*round*/, Outbox& out) override {
    out.send((id_ + 1) % n_, payload_of(id_));
  }
  void on_receive(RoundNumber round,
                  std::span<const Envelope> inbox) override {
    for (const Envelope& envelope : inbox) {
      last_from_ = envelope.from;
    }
    if (round == 2) {
      decide(id_ + 1);
      halt();
    }
  }

  [[nodiscard]] ProcessId last_from() const noexcept { return last_from_; }

 private:
  ProcessId id_;
  std::uint32_t n_;
  ProcessId last_from_ = kNoProcess;
};

/// Crashes a fixed victim in a fixed round with a fixed delivery subset.
class ScriptedAdversary final : public Adversary {
 public:
  ScriptedAdversary(ProcessId victim, RoundNumber when,
                    std::vector<ProcessId> deliver_to)
      : victim_(victim), when_(when), deliver_to_(std::move(deliver_to)) {}

  void schedule(const RoundView& view, CrashPlan& plan) override {
    if (view.round() == when_ && view.is_alive(victim_)) {
      plan.crash(victim_, deliver_to_);
    }
  }

 private:
  ProcessId victim_;
  RoundNumber when_;
  std::vector<ProcessId> deliver_to_;
};

Engine make_echo_engine(std::uint32_t n, std::uint32_t t,
                        std::unique_ptr<Adversary> adversary,
                        RoundNumber halt_after = 3) {
  std::vector<std::unique_ptr<ProcessBase>> processes;
  for (ProcessId id = 0; id < n; ++id) {
    processes.push_back(std::make_unique<EchoProcess>(id, halt_after));
  }
  return Engine(EngineConfig{.num_processes = n, .max_crashes = t},
                std::move(processes), std::move(adversary));
}

TEST(Engine, BroadcastReachesEveryoneIncludingSelf) {
  Engine engine = make_echo_engine(4, 0, nullptr, 1);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.completed);
  for (ProcessId id = 0; id < 4; ++id) {
    const auto& echo = dynamic_cast<const EchoProcess&>(engine.process(id));
    ASSERT_EQ(echo.received().size(), 1u);
    EXPECT_EQ(echo.received()[0],
              (std::vector<std::uint64_t>{0, 1, 2, 3}));
  }
}

TEST(Engine, UnicastReachesOnlyTarget) {
  std::vector<std::unique_ptr<ProcessBase>> processes;
  for (ProcessId id = 0; id < 3; ++id) {
    processes.push_back(std::make_unique<RingProcess>(id, 3));
  }
  Engine engine(EngineConfig{.num_processes = 3, .max_crashes = 0},
                std::move(processes), nullptr);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.completed);
  for (ProcessId id = 0; id < 3; ++id) {
    const auto& ring = dynamic_cast<const RingProcess&>(engine.process(id));
    EXPECT_EQ(ring.last_from(), (id + 2) % 3);
  }
}

TEST(Engine, CrashSubsetDeliveryIsExact) {
  // Victim 0 crashes in round 1; only process 2 receives its final message.
  Engine engine = make_echo_engine(
      4, 1, std::make_unique<ScriptedAdversary>(0, 1, std::vector<ProcessId>{2}),
      3);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.completed);
  const auto& p1 = dynamic_cast<const EchoProcess&>(engine.process(1));
  const auto& p2 = dynamic_cast<const EchoProcess&>(engine.process(2));
  // Round 0: all four. Round 1: p2 sees {0,1,2,3}, p1 sees {1,2,3}.
  EXPECT_EQ(p1.received()[1], (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(p2.received()[1], (std::vector<std::uint64_t>{0, 1, 2, 3}));
  // Round 2: victim silent everywhere.
  EXPECT_EQ(p1.received()[2], (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(p2.received()[2], (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Engine, CrashedProcessNeverActsAgain) {
  Engine engine = make_echo_engine(
      3, 1,
      std::make_unique<ScriptedAdversary>(1, 0, std::vector<ProcessId>{}),
      4);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.outcomes[1].crashed);
  EXPECT_EQ(result.outcomes[1].crash_round, 0u);
  EXPECT_FALSE(result.outcomes[1].decided);
  const auto& victim = dynamic_cast<const EchoProcess&>(engine.process(1));
  EXPECT_TRUE(victim.received().empty());  // crashed before first receive
}

TEST(Engine, HaltedProcessGoesSilentButKeepsOutcome) {
  // Process 0 halts after round 1; others run to round 3.
  std::vector<std::unique_ptr<ProcessBase>> processes;
  processes.push_back(std::make_unique<EchoProcess>(0, 1));
  processes.push_back(std::make_unique<EchoProcess>(1, 3));
  processes.push_back(std::make_unique<EchoProcess>(2, 3));
  Engine engine(EngineConfig{.num_processes = 3, .max_crashes = 0},
                std::move(processes), nullptr);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.outcomes[0].decided);
  EXPECT_TRUE(result.outcomes[0].halted);
  EXPECT_EQ(result.outcomes[0].halt_round, 0u);
  const auto& p1 = dynamic_cast<const EchoProcess&>(engine.process(1));
  EXPECT_EQ(p1.received()[0], (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(p1.received()[1], (std::vector<std::uint64_t>{1, 2}));
}

TEST(Engine, MetricsCountDeliveriesAndBytes) {
  Engine engine = make_echo_engine(4, 0, nullptr, 2);
  const RunResult result = engine.run();
  // 2 rounds, 4 broadcasts each, 4 recipients each: 32 deliveries.
  EXPECT_EQ(result.metrics.total_deliveries, 32u);
  EXPECT_EQ(result.metrics.total_sends, 8u);
  EXPECT_GT(result.metrics.total_bytes_delivered, 0u);
  ASSERT_EQ(result.metrics.per_round.size(), 2u);
  EXPECT_EQ(result.metrics.per_round[0].deliveries, 16u);
}

TEST(Engine, RoundCapStopsLivelock) {
  Engine engine = make_echo_engine(2, 0, nullptr, /*halt_after=*/100000);
  // Tiny explicit cap.
  std::vector<std::unique_ptr<ProcessBase>> processes;
  processes.push_back(std::make_unique<EchoProcess>(0, 100000));
  processes.push_back(std::make_unique<EchoProcess>(1, 100000));
  Engine capped(EngineConfig{.num_processes = 2, .max_crashes = 0,
                             .max_rounds = 5},
                std::move(processes), nullptr);
  const RunResult result = capped.run();
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.rounds, 5u);
}

TEST(Engine, RejectsOverBudgetAdversary) {
  // Budget 1, adversary scripted to crash in round 0 and (via second
  // adversary) another in round 1 — emulate with two scripted crashes by
  // chaining: simplest is budget 0 with one crash.
  Engine engine = make_echo_engine(
      3, 0, std::make_unique<ScriptedAdversary>(0, 0, std::vector<ProcessId>{}),
      2);
  EXPECT_THROW((void)engine.run(), ContractViolation);
}

TEST(Engine, RejectsCrashingDeadProcess) {
  class DoubleKill final : public Adversary {
   public:
    void schedule(const RoundView& view, CrashPlan& plan) override {
      if (view.round() == 0) {
        plan.crash_silent(0);
        plan.crash_silent(0);  // same victim twice
      }
    }
  };
  Engine engine = make_echo_engine(3, 2, std::make_unique<DoubleKill>(), 2);
  EXPECT_THROW((void)engine.run(), ContractViolation);
}

TEST(Engine, ConfigValidation) {
  std::vector<std::unique_ptr<ProcessBase>> empty;
  EXPECT_THROW(Engine(EngineConfig{.num_processes = 0, .max_crashes = 0},
                      std::move(empty), nullptr),
               ContractViolation);
  std::vector<std::unique_ptr<ProcessBase>> one;
  one.push_back(std::make_unique<EchoProcess>(0));
  EXPECT_THROW(Engine(EngineConfig{.num_processes = 1, .max_crashes = 1},
                      std::move(one), nullptr),
               ContractViolation);  // t < n violated
}

TEST(Engine, ResultSnapshotsMidRun) {
  Engine engine = make_echo_engine(2, 0, nullptr, 3);
  EXPECT_TRUE(engine.step());
  const RunResult mid = engine.result();
  EXPECT_FALSE(mid.completed);
  EXPECT_EQ(mid.rounds, 1u);
}

// ---- validate_renaming ------------------------------------------------------

RunResult fake_result(std::vector<ProcessOutcome> outcomes) {
  RunResult result;
  result.completed = true;
  result.rounds = 5;
  result.outcomes = std::move(outcomes);
  return result;
}

TEST(ValidateRenaming, AcceptsDistinctValidNames) {
  const RunResult result = fake_result({
      {.decided = true, .name = 1},
      {.decided = true, .name = 3},
      {.decided = true, .name = 2},
  });
  EXPECT_NO_THROW(validate_renaming(result, 3));
}

TEST(ValidateRenaming, CrashedProcessesOweNothing) {
  const RunResult result = fake_result({
      {.decided = true, .name = 2},
      {.decided = false, .name = 0, .decide_round = 0, .crashed = true},
  });
  EXPECT_NO_THROW(validate_renaming(result, 2));
}

TEST(ValidateRenaming, RejectsMissingDecision) {
  const RunResult result = fake_result({
      {.decided = true, .name = 1},
      {.decided = false},
  });
  EXPECT_THROW(validate_renaming(result, 2), ContractViolation);
}

TEST(ValidateRenaming, RejectsOutOfRangeName) {
  const RunResult result = fake_result({{.decided = true, .name = 3}});
  EXPECT_THROW(validate_renaming(result, 2), ContractViolation);
  const RunResult zero = fake_result({{.decided = true, .name = 0}});
  EXPECT_THROW(validate_renaming(zero, 2), ContractViolation);
}

TEST(ValidateRenaming, RejectsDuplicateNames) {
  const RunResult result = fake_result({
      {.decided = true, .name = 1},
      {.decided = true, .name = 1},
  });
  EXPECT_THROW(validate_renaming(result, 2), ContractViolation);
}

// ---- Generic adversaries ----------------------------------------------------

TEST(Adversaries, ObliviousRespectsPlannedCount) {
  auto adversary = std::make_unique<ObliviousCrashAdversary>(
      8,
      ObliviousCrashAdversary::Options{.crashes = 3, .horizon_rounds = 2},
      7);
  Engine engine = make_echo_engine(8, 3, std::move(adversary), 6);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.completed);
  std::uint32_t crashed = 0;
  for (const auto& outcome : result.outcomes) {
    crashed += outcome.crashed ? 1 : 0;
  }
  EXPECT_EQ(crashed, 3u);
}

TEST(Adversaries, SandwichCrashesLowestAliveOnPathRounds) {
  auto adversary = std::make_unique<SandwichAdversary>(
      SandwichAdversary::Options{.offset = 1, .period = 2, .per_round = 1});
  Engine engine = make_echo_engine(6, 2, std::move(adversary), 6);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.outcomes[0].crashed);
  EXPECT_EQ(result.outcomes[0].crash_round, 1u);
  EXPECT_TRUE(result.outcomes[1].crashed);
  EXPECT_EQ(result.outcomes[1].crash_round, 3u);
}

// ---- Tracing ----------------------------------------------------------------

TEST(Trace, CountingTraceSeesEveryEvent) {
  CountingTrace trace;
  std::vector<std::unique_ptr<ProcessBase>> processes;
  for (ProcessId id = 0; id < 3; ++id) {
    processes.push_back(std::make_unique<EchoProcess>(id, 2));
  }
  Engine engine(EngineConfig{.num_processes = 3, .max_crashes = 1,
                             .trace = &trace},
                std::move(processes),
                std::make_unique<ScriptedAdversary>(
                    0, 1, std::vector<ProcessId>{1}));
  const RunResult result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(trace.rounds, result.rounds);
  EXPECT_EQ(trace.crashes, 1u);
  EXPECT_EQ(trace.decisions, 2u);  // the crashed process never decides
  EXPECT_EQ(trace.halts, 2u);
  EXPECT_GT(trace.sends, 0u);
}

TEST(Trace, TextTraceRendersReadableLines) {
  TextTrace trace;
  std::vector<std::unique_ptr<ProcessBase>> processes;
  processes.push_back(std::make_unique<EchoProcess>(0, 1));
  processes.push_back(std::make_unique<EchoProcess>(1, 1));
  Engine engine(EngineConfig{.num_processes = 2, .max_crashes = 0,
                             .trace = &trace},
                std::move(processes), nullptr);
  (void)engine.run();
  std::ostringstream os;
  trace.dump(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("---- round 0 ----"), std::string::npos);
  EXPECT_NE(out.find("p0 sends 1 message"), std::string::npos);
  EXPECT_NE(out.find("p1 decides name 2"), std::string::npos);
  EXPECT_NE(out.find("p0 halts"), std::string::npos);
}

TEST(Trace, CrashEventIncludesSubsetSize) {
  TextTrace trace;
  std::vector<std::unique_ptr<ProcessBase>> processes;
  for (ProcessId id = 0; id < 4; ++id) {
    processes.push_back(std::make_unique<EchoProcess>(id, 3));
  }
  Engine engine(EngineConfig{.num_processes = 4, .max_crashes = 1,
                             .trace = &trace},
                std::move(processes),
                std::make_unique<ScriptedAdversary>(
                    2, 0, std::vector<ProcessId>{0, 1}));
  (void)engine.run();
  std::ostringstream os;
  trace.dump(os);
  EXPECT_NE(os.str().find("p2 CRASHES mid-broadcast, delivered to 2"),
            std::string::npos);
}

// ---- DecodeCache: one whole-inbox memo per registered span --------------

/// A build function that numbers its calls, so tests can tell which build a
/// memoized value came from.
struct CountingBuild {
  int* calls;
  std::vector<int> operator()(std::span<const Envelope> inbox) const {
    ++*calls;
    return {*calls, static_cast<int>(inbox.size())};
  }
};

TEST(DecodeCache, RegisteredSpansGetSeparateMemos) {
  DecodeCache cache;
  cache.begin_round();
  const std::vector<Envelope> first(3);
  const std::vector<Envelope> second(3);
  cache.register_inbox(first);
  cache.register_inbox(second);
  int calls = 0;
  const auto* a = cache.get_or_build_memo<std::vector<int>>(
      first, CountingBuild{&calls});
  const auto* b = cache.get_or_build_memo<std::vector<int>>(
      second, CountingBuild{&calls});
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ((*a)[0], 1);
  EXPECT_EQ((*b)[0], 2);
  // Repeat lookups are served from each span's own memo.
  EXPECT_EQ(cache.get_or_build_memo<std::vector<int>>(first,
                                                      CountingBuild{&calls}),
            a);
  EXPECT_EQ(cache.get_or_build_memo<std::vector<int>>(second,
                                                      CountingBuild{&calls}),
            b);
  EXPECT_EQ(calls, 2);
}

TEST(DecodeCache, UnregisteredScratchSpanReturnsNull) {
  DecodeCache cache;
  cache.begin_round();
  const std::vector<Envelope> registered(3);
  const std::vector<Envelope> scratch(3);
  cache.register_inbox(registered);
  int calls = 0;
  EXPECT_EQ(cache.get_or_build_memo<std::vector<int>>(scratch,
                                                      CountingBuild{&calls}),
            nullptr);
  // A prefix of a registered span is a different inbox, not a hit.
  EXPECT_EQ(cache.get_or_build_memo<std::vector<int>>(
                std::span<const Envelope>(registered).first(2),
                CountingBuild{&calls}),
            nullptr);
  EXPECT_EQ(calls, 0);
  // round_index builds such inboxes fresh into the caller's scratch.
  std::vector<Envelope> stamped(2);
  for (Envelope& envelope : stamped) {
    envelope.cache = &cache;
  }
  std::vector<int> local;
  EXPECT_EQ(round_index(std::span<const Envelope>(stamped), local,
                        CountingBuild{&calls}),
            &local);
  EXPECT_EQ(calls, 1);
}

TEST(DecodeCache, BeginRoundDropsEverything) {
  DecodeCache cache;
  cache.begin_round();
  const std::vector<Envelope> inbox(2);
  cache.register_inbox(inbox);
  int calls = 0;
  ASSERT_NE(cache.get_or_build_memo<std::vector<int>>(inbox,
                                                      CountingBuild{&calls}),
            nullptr);
  const wire::Buffer payload = payload_of(7);
  ASSERT_NE(cache.get_or_decode<std::uint64_t>(
                &payload,
                [](std::span<const std::byte> bytes) {
                  wire::Reader reader(bytes);
                  return reader.varint();
                }),
            nullptr);
  EXPECT_EQ(cache.size(), 1u);
  cache.begin_round();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get_or_build_memo<std::vector<int>>(inbox,
                                                      CountingBuild{&calls}),
            nullptr);
  EXPECT_EQ(calls, 1);
}

TEST(DecodeCache, ReleasedClassMemoIsNotServedAgain) {
  DecodeCache cache;
  cache.begin_round();
  const std::vector<Envelope> arena(4);
  cache.register_inbox(arena);
  int calls = 0;
  const auto* before = cache.get_or_build_memo<std::vector<int>>(
      arena, CountingBuild{&calls});
  ASSERT_NE(before, nullptr);
  EXPECT_EQ((*before)[0], 1);
  cache.release_inbox(arena);
  EXPECT_EQ(cache.get_or_build_memo<std::vector<int>>(arena,
                                                      CountingBuild{&calls}),
            nullptr);
  // The arena reused at the same address for another class gets a fresh
  // memo, never the released one's value.
  cache.register_inbox(arena);
  const auto* after = cache.get_or_build_memo<std::vector<int>>(
      arena, CountingBuild{&calls});
  ASSERT_NE(after, nullptr);
  EXPECT_EQ((*after)[0], 2);
  EXPECT_EQ(calls, 2);
}

/// Builds a whole-inbox index through round_index every round and counts
/// the builds in a counter shared by all processes (serial engine).
class IndexingProcess final : public ProcessBase {
 public:
  IndexingProcess(ProcessId id, int* builds) : id_(id), builds_(builds) {}

  void on_send(RoundNumber /*round*/, Outbox& out) override {
    out.broadcast(payload_of(id_));
  }
  void on_receive(RoundNumber round,
                  std::span<const Envelope> inbox) override {
    std::vector<int> scratch;
    (void)round_index(inbox, scratch, CountingBuild{builds_});
    if (round == 2) {
      decide(id_ + 1);
      halt();
    }
  }

 private:
  ProcessId id_;
  int* builds_;
};

TEST(Engine, CrashSubsetRoundBuildsOneIndexPerClass) {
  // Process 2 crashes in round 1, delivering to {0, 1, 3} only: the round
  // has two delivery classes — {0, 1, 3} and the shared plan {4, ..., 7} —
  // so the recipients build two indexes, not one per recipient.
  constexpr std::uint32_t n = 8;
  int builds = 0;
  std::vector<std::unique_ptr<ProcessBase>> processes;
  for (ProcessId id = 0; id < n; ++id) {
    processes.push_back(std::make_unique<IndexingProcess>(id, &builds));
  }
  Engine engine(EngineConfig{.num_processes = n, .max_crashes = 1},
                std::move(processes),
                std::make_unique<ScriptedAdversary>(
                    2, 1, std::vector<ProcessId>{0, 1, 3}));
  ASSERT_TRUE(engine.step());
  EXPECT_EQ(builds, 1);
  ASSERT_TRUE(engine.step());
  EXPECT_EQ(builds, 3);
}

TEST(Adversaries, MakeDeliverySubsetPolicies) {
  // Build a minimal view over 5 alive processes.
  std::vector<std::unique_ptr<ProcessBase>> processes;
  for (ProcessId id = 0; id < 5; ++id) {
    processes.push_back(std::make_unique<EchoProcess>(id));
  }
  std::vector<ProcessId> alive{0, 1, 2, 3, 4};
  std::vector<Outbox> outboxes(5);
  const RoundView view(0, 5, alive, processes, outboxes, 5);
  Rng rng(3);

  EXPECT_TRUE(make_delivery_subset(view, 2, SubsetPolicy::kSilent, rng)
                  .empty());
  const auto alternating =
      make_delivery_subset(view, 2, SubsetPolicy::kAlternating, rng);
  EXPECT_EQ(alternating, (std::vector<ProcessId>{0, 3}));
  const auto all = make_delivery_subset(view, 2, SubsetPolicy::kAll, rng);
  EXPECT_EQ(all, (std::vector<ProcessId>{0, 1, 3, 4}));
  const auto half =
      make_delivery_subset(view, 2, SubsetPolicy::kRandomHalf, rng);
  for (ProcessId id : half) {
    EXPECT_NE(id, 2u);
    EXPECT_LT(id, 5u);
  }
}

}  // namespace
}  // namespace bil::sim
