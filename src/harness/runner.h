// One-call experiment runner: algorithm × n × adversary × seed → summary.
//
// Every run executed through this harness is validated against the three
// renaming properties (termination, validity, uniqueness) before its summary
// is returned — tools, examples and tests cannot report numbers from
// an incorrect run. The algorithm table lives here too, as the adversary
// table does in harness/adversary_table.h: adding an algorithm means one
// enum value and one row.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/balls_into_leaves.h"
#include "core/observer.h"
#include "core/policy.h"
#include "harness/adversary_table.h"
#include "sim/engine.h"
#include "sim/scheduler.h"

namespace bil::harness {

/// The renaming algorithms available to experiments. Each value is
/// described once, by its row of algorithm_table(): name, aliases,
/// description, family, path policy, process factory and namespace bound.
enum class Algorithm : std::uint8_t {
  kBallsIntoLeaves,
  kEarlyTerminating,
  kRankDescent,
  kHalving,
  kGossip,
  kNaiveBins,
  kSplitterNet,
};

[[nodiscard]] const char* to_string(Algorithm algorithm) noexcept;

/// True for the tree-descent algorithms: BallsIntoLeavesProcess under a
/// path policy. Only they share a tree::TreeShape, carry the Byzantine
/// validation layer, and have a single-view fast simulation.
[[nodiscard]] bool is_tree_based(Algorithm algorithm) noexcept;

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

/// How an algorithm is built: the tree-descent variants, or one family per
/// baseline (flooding agreement, blind random claims, the splitter grid).
enum class AlgorithmFamily : std::uint8_t { kTree, kGossip, kBins, kSplitter };

[[nodiscard]] const char* to_string(AlgorithmFamily family) noexcept;

/// Builds one process of a run. make_processes derives the inputs the same
/// way for every algorithm: `label` from RunConfig's label rule, `seed` =
/// derive_seed(config.seed, kSeedDomainProcess, id), `shape` the run's tree
/// (null for the baselines), and `observer` non-null only for id n-1.
using ProcessFactory = std::unique_ptr<sim::ProcessBase> (*)(
    const RunConfig& config, sim::Label label, std::uint64_t seed,
    const std::shared_ptr<const tree::TreeShape>& shape,
    core::RecordingObserver* observer);

/// The namespace size n processes rename into under crash budget `crashes`.
using NamespaceBound = std::uint64_t (*)(std::uint32_t n,
                                         std::uint32_t crashes);

struct AlgorithmDescriptor {
  Algorithm algorithm = Algorithm::kBallsIntoLeaves;
  /// Canonical name (harness::to_string(algorithm)).
  const char* name = "";
  /// Short CLI aliases, also accepted by name lookup.
  std::span<const char* const> aliases = {};
  const char* description = "";
  AlgorithmFamily family = AlgorithmFamily::kTree;
  /// The candidate-path policy of a tree row; meaningful only when
  /// fast_sim_capable().
  core::PathPolicy policy = core::PathPolicy::kRandomWeighted;
  ProcessFactory make_process = nullptr;
  /// Null for the algorithms that rename into exactly 1..n.
  NamespaceBound namespace_bound = nullptr;

  /// True for the tree rows, which the single-view fast simulator executes.
  [[nodiscard]] constexpr bool fast_sim_capable() const noexcept {
    return family == AlgorithmFamily::kTree;
  }
  /// The namespace size sim::validate_renaming checks a run's names
  /// against.
  [[nodiscard]] std::uint64_t namespace_size(std::uint32_t n,
                                             std::uint32_t crashes) const {
    return namespace_bound != nullptr ? namespace_bound(n, crashes) : n;
  }
};

/// Every algorithm, in enum order: entry i describes Algorithm value i.
[[nodiscard]] std::span<const AlgorithmDescriptor> algorithm_table() noexcept;

/// The row of `algorithm` (throws ContractViolation for a value outside
/// the enum).
[[nodiscard]] const AlgorithmDescriptor& algorithm_descriptor(
    Algorithm algorithm);

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

/// Builds the adversary a run with this spec would face — the kind's
/// table row's factory, which run_renaming itself uses — exposed so the
/// crash-capable fast simulator can replay the *identical* object (same
/// construction-time victim/round draws from derive_seed(run_seed,
/// kSeedDomainAdversary, 0), same subset RNG stream) against its symbolic
/// execution. Returns null for kNone and for a zero Byzantine budget.
/// `shape` is only consulted by the protocol-aware (targeted and liar)
/// kinds; a kind whose row `needs_tree` is rejected without one. Rejects
/// the delay kinds, which make_scheduler builds.
[[nodiscard]] std::unique_ptr<sim::Adversary> make_adversary(
    const AdversarySpec& spec, std::uint32_t n, std::uint64_t run_seed,
    const std::shared_ptr<const tree::TreeShape>& shape = nullptr);

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
