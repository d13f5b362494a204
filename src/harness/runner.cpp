#include "harness/runner.h"

#include <cstddef>
#include <iterator>
#include <memory>
#include <string>
#include <utility>

#include "baselines/gossip.h"
#include "baselines/naive_bins.h"
#include "baselines/splitter_net.h"
#include "core/seeds.h"
#include "tree/shape.h"
#include "util/contract.h"
#include "util/rng.h"

namespace bil::harness {

namespace {

using Shape = std::shared_ptr<const tree::TreeShape>;
using Process = std::unique_ptr<sim::ProcessBase>;
using Observer = core::RecordingObserver;

Process tree_process(const RunConfig& config, sim::Label label,
                     std::uint64_t seed, const Shape& shape,
                     Observer* observer) {
  return std::make_unique<core::BallsIntoLeavesProcess>(
      core::BallsIntoLeavesProcess::Options{
          .num_names = config.n,
          .label = label,
          .seed = seed,
          .policy = algorithm_descriptor(config.algorithm).policy,
          .termination = config.termination,
          .shape = shape,
          .observer = observer,
          .tolerate_byzantine = config.adversary.byzantine > 0});
}

Process gossip(const RunConfig& config, sim::Label label, std::uint64_t,
               const Shape&, Observer*) {
  const std::uint32_t t =
      config.gossip_t == kWaitFree ? config.n - 1 : config.gossip_t;
  return std::make_unique<baselines::GossipRenamingProcess>(
      baselines::GossipRenamingProcess::Options{.label = label,
                                                .max_crashes = t});
}

Process naive_bins(const RunConfig& config, sim::Label label,
                   std::uint64_t seed, const Shape&, Observer*) {
  return std::make_unique<baselines::NaiveBinsProcess>(
      baselines::NaiveBinsProcess::Options{
          .num_bins = config.n, .label = label, .seed = seed});
}

Process splitter_net(const RunConfig& config, sim::Label label,
                     std::uint64_t, const Shape&, Observer*) {
  return std::make_unique<baselines::SplitterNetProcess>(
      baselines::SplitterNetProcess::Options{.n = config.n, .label = label});
}

constexpr const char* kBilAliases[] = {"bil"};
constexpr const char* kEarlyAliases[] = {"early"};
constexpr const char* kRankAliases[] = {"rank"};
constexpr const char* kBinsAliases[] = {"bins"};
constexpr const char* kSplitterAliases[] = {"splitter"};

constexpr AlgorithmDescriptor kTable[] = {
    {.algorithm = Algorithm::kBallsIntoLeaves,
     .name = "balls-into-leaves",
     .aliases = kBilAliases,
     .description =
         "Balls-into-Leaves, Algorithm 1 (randomized, O(log log n) w.h.p.)",
     .policy = core::PathPolicy::kRandomWeighted,
     .make_process = tree_process},
    {.algorithm = Algorithm::kEarlyTerminating,
     .name = "bil-early-term",
     .aliases = kEarlyAliases,
     .description = "§6 early-terminating extension (deterministic phase 1, "
                    "then random)",
     .policy = core::PathPolicy::kEarlyTerminating,
     .make_process = tree_process},
    {.algorithm = Algorithm::kRankDescent,
     .name = "rank-descent",
     .aliases = kRankAliases,
     .description = "deterministic rank-indexed descent every phase (§6's "
                    "deterministic scheme)",
     .policy = core::PathPolicy::kRankedSlack,
     .make_process = tree_process},
    {.algorithm = Algorithm::kHalving,
     .name = "halving",
     .description = "deterministic one-level-per-phase halving (Θ(log n); "
                    "the Chaudhuri–Herlihy–Tuttle class)",
     .policy = core::PathPolicy::kHalvingSplit,
     .make_process = tree_process},
    {.algorithm = Algorithm::kGossip,
     .name = "gossip",
     .description = "flooding agreement on the id set; t+1 rounds (linear "
                    "baseline)",
     .family = AlgorithmFamily::kGossip,
     .make_process = gossip},
    {.algorithm = Algorithm::kNaiveBins,
     .name = "naive-bins",
     .aliases = kBinsAliases,
     .description = "tree-free random claims with retry (naive "
                    "balls-into-bins baseline)",
     .family = AlgorithmFamily::kBins,
     .make_process = naive_bins},
    // The splitter network renames into its grid's Θ((n+t)²) namespace,
    // not the tight 1..n namespace the tree algorithms and bins target.
    {.algorithm = Algorithm::kSplitterNet,
     .name = "splitter-net",
     .aliases = kSplitterAliases,
     .description = "Moir–Anderson splitter-network grid adapted to "
                    "message passing (Θ(n) rounds, Θ((n+t)²) namespace)",
     .family = AlgorithmFamily::kSplitter,
     .make_process = splitter_net,
     .namespace_bound = baselines::SplitterNetProcess::namespace_bound},
};

// Entry i describes enum value i (tests/api_registry_test.cpp checks the
// order); algorithm_descriptor indexes by value.
static_assert(std::size(kTable) ==
                  static_cast<std::size_t>(Algorithm::kSplitterNet) + 1,
              "algorithm_table() needs one row per Algorithm");

}  // namespace

std::span<const AlgorithmDescriptor> algorithm_table() noexcept {
  return kTable;
}

const AlgorithmDescriptor& algorithm_descriptor(Algorithm algorithm) {
  const auto index = static_cast<std::size_t>(algorithm);
  BIL_REQUIRE(index < std::size(kTable),
              "algorithm enum value is not registered");
  return kTable[index];
}

const char* to_string(Algorithm algorithm) noexcept {
  const auto index = static_cast<std::size_t>(algorithm);
  return index < std::size(kTable) ? kTable[index].name : "unknown";
}

const char* to_string(AlgorithmFamily family) noexcept {
  constexpr const char* kNames[] = {"tree", "gossip", "bins", "splitter"};
  const auto index = static_cast<std::size_t>(family);
  return index < std::size(kNames) ? kNames[index] : "unknown";
}

bool is_tree_based(Algorithm algorithm) noexcept {
  const auto index = static_cast<std::size_t>(algorithm);
  return index < std::size(kTable) && kTable[index].fast_sim_capable();
}

std::vector<Process> make_processes(const RunConfig& config,
                                    const Shape& shape, Observer* observer) {
  const AlgorithmDescriptor& row = algorithm_descriptor(config.algorithm);
  std::vector<Process> processes;
  processes.reserve(config.n);
  for (sim::ProcessId id = 0; id < config.n; ++id) {
    processes.push_back(row.make_process(
        config, config.label_offset + config.label_stride * id,
        derive_seed(config.seed, core::kSeedDomainProcess, id), shape,
        id == config.n - 1 ? observer : nullptr));
  }
  return processes;
}

std::unique_ptr<sim::Adversary> make_adversary(
    const AdversarySpec& spec, std::uint32_t n, std::uint64_t run_seed,
    const std::shared_ptr<const tree::TreeShape>& shape) {
  const AdversaryDescriptor& row = adversary_descriptor(spec.kind);
  // Delay kinds are schedulers, not crash/corruption adversaries: they
  // have no sim::Adversary form. make_scheduler is their factory.
  BIL_REQUIRE(row.fault_model != FaultModel::kDelay,
              "delay adversaries assume the DeliveryScheduler role; "
              "build them through make_scheduler, not make_adversary");
  const bool byzantine = row.fault_model == FaultModel::kByzantine;
  // A zero Byzantine budget means nobody corrupts anything: no adversary at
  // all, so f = 0 is *literally* the failure-free run (and non-tree
  // algorithms never trip the liar's shape requirement).
  if (row.build_adversary == nullptr || (byzantine && spec.byzantine == 0)) {
    return nullptr;
  }
  BIL_REQUIRE(!row.needs_tree || shape != nullptr,
              std::string("adversary '") + row.name +
                  "' requires a tree-based algorithm");
  // Byzantine kinds draw from their own seed domain so that adding wire
  // corruption to a run never perturbs a crash schedule it rides on.
  const std::uint64_t domain =
      byzantine ? core::kSeedDomainByzantine : core::kSeedDomainAdversary;
  return row.build_adversary(spec, n, derive_seed(run_seed, domain, 0), shape);
}

std::unique_ptr<sim::DeliveryScheduler> make_scheduler(
    const AdversarySpec& spec, std::uint32_t n, std::uint64_t run_seed,
    const std::shared_ptr<const tree::TreeShape>& shape) {
  const AdversaryDescriptor& row = adversary_descriptor(spec.kind);
  if (row.fault_model != FaultModel::kDelay) {
    return std::make_unique<sim::SynchronousScheduler>(
        make_adversary(spec, n, run_seed, shape));
  }
  BIL_REQUIRE(spec.crashes == 0 && spec.byzantine == 0,
              "delay adversaries schedule message delivery, not failures: "
              "delay runs are crash-free — drop the "
              "crash/Byzantine budgets or use a synchronous adversary kind");
  return row.build_scheduler(spec.delay,
                             derive_seed(run_seed, core::kSeedDomainDelay, 0));
}

RunSummary run_renaming(const RunConfig& config) {
  BIL_REQUIRE(config.n >= 1, "need at least one process");
  BIL_REQUIRE(config.label_stride >= 1, "labels must be strictly monotone");
  BIL_REQUIRE(config.gossip_t == kWaitFree || config.gossip_t <= config.n - 1,
              "gossip_t must be kWaitFree or a crash budget t <= n-1 (t < n: "
              "at least one process survives)");

  const bool tree_based = is_tree_based(config.algorithm);
  const bool byzantine = config.adversary.byzantine > 0;
  if (byzantine) {
    BIL_REQUIRE(tree_based,
                "the Byzantine validation layer lives in the tree-based "
                "processes; baselines cannot run under a byzantine budget");
    // A forged position claim can make an honest view believe a leaf is
    // taken (or free) before conflicts are resolved; eager decisions bind a
    // name that the eviction rule may still revoke. Global termination
    // decides only after the final conflict-free position round.
    BIL_REQUIRE(config.termination != core::TerminationMode::kEagerLeaf,
                "eager-leaf termination is unsound under Byzantine faults");
  }
  std::shared_ptr<const tree::TreeShape> shape;
  if (tree_based) {
    shape = tree::TreeShape::make(config.n);
  }

  core::RecordingObserver observer;
  std::vector<std::unique_ptr<sim::ProcessBase>> processes =
      make_processes(config, shape, config.observe ? &observer : nullptr);

  sim::Engine engine(
      sim::EngineConfig{.num_processes = config.n,
                        .max_crashes = config.adversary.crashes,
                        .max_byzantine = config.adversary.byzantine,
                        .max_rounds = config.max_rounds,
                        .num_threads = config.engine_threads,
                        .trace = config.trace},
      std::move(processes),
      make_scheduler(config.adversary, config.n, config.seed, shape));
  sim::RunResult result = engine.run();
  sim::validate_renaming(
      result, algorithm_descriptor(config.algorithm)
                  .namespace_size(config.n, config.adversary.crashes));

  RunSummary summary;
  summary.completed = result.completed;
  summary.rounds = result.last_decide_round() + 1;
  summary.total_rounds = result.rounds;
  summary.crashes = engine.crash_count();
  summary.messages_delivered = result.metrics.total_deliveries;
  summary.bytes_delivered = result.metrics.total_bytes_delivered;
  summary.phases = observer.snapshots();
  summary.raw = std::move(result);
  return summary;
}

}  // namespace bil::harness
