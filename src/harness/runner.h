// One-call experiment runner: algorithm × n × adversary × seed → summary.
//
// Every run executed through this harness is validated against the three
// renaming properties (termination, validity, uniqueness) before its summary
// is returned — benches and examples cannot accidentally report numbers from
// an incorrect run.
#pragma once

#include <cstdint>
#include <vector>

#include "core/balls_into_leaves.h"
#include "core/observer.h"
#include "sim/adversaries.h"
#include "sim/engine.h"
#include "sim/scheduler.h"

namespace bil::harness {

/// The renaming algorithms available to experiments.
enum class Algorithm : std::uint8_t {
  /// Balls-into-Leaves, Algorithm 1 (randomized, O(log log n) w.h.p.).
  kBallsIntoLeaves,
  /// §6 early-terminating extension (deterministic phase 1, then random).
  kEarlyTerminating,
  /// Deterministic rank-indexed descent in every phase (§6's deterministic
  /// scheme; comparison-based).
  kRankDescent,
  /// Deterministic one-level-per-phase halving (Θ(log n) always; the
  /// complexity class of the Chaudhuri–Herlihy–Tuttle baseline).
  kHalving,
  /// Flooding agreement on the id set; t+1 rounds (linear baseline).
  kGossip,
  /// Tree-free random claims with retry (naive balls-into-bins baseline).
  kNaiveBins,
  /// Moir–Anderson splitter-network grid adapted to message passing
  /// (Θ(n) rounds into a Θ((n+t)²) namespace; the classic renaming
  /// construction the separation claims compare against).
  kSplitterNet,
};

[[nodiscard]] const char* to_string(Algorithm algorithm) noexcept;

/// Which crash strategy attacks the run.
enum class AdversaryKind : std::uint8_t {
  kNone,
  kOblivious,
  kBurst,
  kSandwich,
  kEager,
  /// core::TargetedCollisionAdversary, kContendedWinner mode.
  kTargetedWinner,
  /// core::TargetedCollisionAdversary, kDeepestAnnouncer mode.
  kTargetedAnnouncer,
  // -- Byzantine (wire-corruption) kinds: rewrite outgoing traffic instead
  // of crashing. The faulty processes run honest code; see
  // sim::CorruptionPlan for the fault model.
  /// sim::ByzantineCorruptionAdversary — bit-flips / truncations; garbled
  /// payloads fail to decode, so the sender merely looks silent.
  kByzantineBitFlip,
  /// core::ByzantineLiarAdversary, kConsistentLies: phantom leaf occupancy.
  kByzantineLiar,
  /// core::ByzantineLiarAdversary, kEquivocate: per-recipient contradictory
  /// claims. Cap with AdversarySpec::byzantine_rounds (see the adversary's
  /// header for why unbounded equivocation can postpone termination).
  kByzantineEquivocator,
  // -- Delay (timing) kinds: the adversary assumes the DeliveryScheduler
  // role (sim/scheduler.h) and attacks *when* messages arrive instead of
  // crashing or corrupting. Async-only and crash-free by contract
  // (make_scheduler rejects mixing a delay kind with crash or Byzantine
  // budgets).
  /// sim::BoundedDelayScheduler — every batch delayed uniformly in
  /// [1, delay.max_delay] ticks. max_delay = 1 is bit-identical to the
  /// synchronous run.
  kBoundedDelay,
  /// sim::GstScheduler — partial synchrony: delays bounded by
  /// delay.max_delay before tick delay.gst, exactly one tick after it.
  kGst,
};

[[nodiscard]] const char* to_string(AdversaryKind kind) noexcept;

struct AdversarySpec {
  AdversaryKind kind = AdversaryKind::kNone;
  /// Crash budget t (and the planned crash count for oblivious/burst).
  std::uint32_t crashes = 0;
  /// Burst round.
  sim::RoundNumber when = 1;
  /// Oblivious crash-round horizon.
  sim::RoundNumber horizon = 8;
  /// Victims per firing round (sandwich/eager/targeted).
  std::uint32_t per_round = 1;
  sim::SubsetPolicy subset = sim::SubsetPolicy::kRandomHalf;
  /// Byzantine budget f for the kByzantine* kinds: processes 0..f-1 have
  /// their outgoing wire traffic rewritten. Requires a tree-based algorithm
  /// (the validation layer lives in BallsIntoLeavesProcess) and forbids
  /// TerminationMode::kEagerLeaf (a forged leaf claim could force a
  /// premature, conflicting decision). Seeded from kSeedDomainByzantine, so
  /// combining with a crash budget never perturbs the crash schedule.
  std::uint32_t byzantine = 0;
  /// Corrupting-round budget for kByzantine* kinds; 0 = every round. The
  /// equivocator should set this (see AdversaryKind::kByzantineEquivocator).
  sim::RoundNumber byzantine_rounds = 0;
  /// Timing knobs for the delay kinds (kBoundedDelay / kGst): delay bound,
  /// GST tick, and the on_timeout budget. Ignored by the synchronous kinds.
  /// The defaults describe lock-step timing (max_delay = 1, no timeouts).
  sim::DelaySpec delay;
};

/// Sentinel for RunConfig::gossip_t: resolve t to n-1 (tolerate every
/// process but one crashing — the wait-free setting).
inline constexpr std::uint32_t kWaitFree = static_cast<std::uint32_t>(-1);

struct RunConfig {
  Algorithm algorithm = Algorithm::kBallsIntoLeaves;
  std::uint32_t n = 0;
  std::uint64_t seed = 0;
  AdversarySpec adversary;
  core::TerminationMode termination = core::TerminationMode::kGlobal;
  /// Attach a recording observer to the highest-id process (adversaries
  /// here prefer low ids, so it usually survives to the end).
  bool observe = false;
  /// 0 = engine default (16n + 64).
  sim::RoundNumber max_rounds = 0;
  /// Gossip's resilience parameter t; must be kWaitFree (resolved to n-1)
  /// or at most n-1 — run_renaming rejects anything else.
  std::uint32_t gossip_t = kWaitFree;
  /// Labels are label_offset + label_stride * id: monotone in the process
  /// id, as the paper's label-order arguments assume.
  sim::Label label_offset = 0;
  sim::Label label_stride = 1;
  /// Intra-round engine executor threads (sim::EngineConfig::num_threads):
  /// 1 = serial, k > 1 = shard the send/receive fan-outs over k threads,
  /// 0 = one per hardware thread. The run's result is bit-identical for
  /// every value.
  std::uint32_t engine_threads = 1;
  /// Optional engine event trace; not owned, must outlive the run.
  /// A non-null trace forces serial execution regardless of engine_threads.
  sim::TraceSink* trace = nullptr;
};

struct RunSummary {
  bool completed = false;
  /// Rounds until the last correct process decided (the paper's metric).
  std::uint32_t rounds = 0;
  /// Rounds until the protocol fully wound down (stale-entry purging can
  /// add a phase after the last decision).
  std::uint32_t total_rounds = 0;
  std::uint32_t crashes = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  /// Phase-boundary snapshots from the observer (empty unless observe).
  std::vector<core::PhaseSnapshot> phases;
  /// Full engine result (names, per-round traffic, ...).
  sim::RunResult raw;
};

/// Runs one configuration to completion and validates the renaming
/// properties; throws ContractViolation if the run violates them or fails
/// to complete within the round cap.
[[nodiscard]] RunSummary run_renaming(const RunConfig& config);

/// Builds the process vector run_renaming would hand the engine for this
/// config: the construction run_renaming itself uses, exposed so the
/// adversary-search evaluator (src/search/evaluate.h) can drive custom
/// adversary objects through byte-identical processes. `shape` must be
/// tree::TreeShape::make(config.n) for the tree-based algorithms and null
/// otherwise; `observer`, when non-null, attaches to the highest-id
/// process (the config.observe wiring).
[[nodiscard]] std::vector<std::unique_ptr<sim::ProcessBase>> make_processes(
    const RunConfig& config,
    const std::shared_ptr<const tree::TreeShape>& shape,
    core::RecordingObserver* observer = nullptr);

/// Builds the adversary a run with this spec would face: the factory
/// run_renaming itself uses, exposed so the crash-capable fast simulator
/// can replay the *identical* object (same construction-time victim/round
/// draws from derive_seed(run_seed, kSeedDomainAdversary, 0), same subset
/// RNG stream) against its symbolic execution. Returns null for kNone.
/// `shape` is only consulted by the protocol-aware targeted kinds.
[[nodiscard]] std::unique_ptr<sim::Adversary> make_adversary(
    const AdversarySpec& spec, std::uint32_t n, std::uint64_t run_seed,
    const std::shared_ptr<const tree::TreeShape>& shape = nullptr);

/// True for the timing kinds (kBoundedDelay / kGst) that schedule delivery
/// ticks instead of carrying a crash/corruption adversary.
[[nodiscard]] bool is_delay_kind(AdversaryKind kind) noexcept;

/// Builds the sim::DeliveryScheduler a run with this spec executes under —
/// the factory run_renaming itself uses. Delay kinds become the matching
/// delay scheduler, seeded from derive_seed(run_seed, kSeedDomainDelay, 0)
/// (their own domain: a delay schedule never perturbs crash schedules or
/// process coins); every other kind is wrapped in a SynchronousScheduler
/// around make_adversary. Rejects a delay kind combined with crash or
/// Byzantine budgets (delay runs are crash-free by contract).
[[nodiscard]] std::unique_ptr<sim::DeliveryScheduler> make_scheduler(
    const AdversarySpec& spec, std::uint32_t n, std::uint64_t run_seed,
    const std::shared_ptr<const tree::TreeShape>& shape = nullptr);

}  // namespace bil::harness
