#include "harness/runner.h"

#include <memory>
#include <utility>

#include "baselines/gossip.h"
#include "baselines/naive_bins.h"
#include "baselines/splitter_net.h"
#include "core/seeds.h"
#include "tree/shape.h"
#include "util/contract.h"
#include "util/rng.h"

namespace bil::harness {

const char* to_string(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::kBallsIntoLeaves:
      return "balls-into-leaves";
    case Algorithm::kEarlyTerminating:
      return "bil-early-term";
    case Algorithm::kRankDescent:
      return "rank-descent";
    case Algorithm::kHalving:
      return "halving";
    case Algorithm::kGossip:
      return "gossip";
    case Algorithm::kNaiveBins:
      return "naive-bins";
    case Algorithm::kSplitterNet:
      return "splitter-net";
  }
  return "unknown";
}

bool is_tree_based(Algorithm algorithm) noexcept {
  return algorithm != Algorithm::kGossip &&
         algorithm != Algorithm::kNaiveBins &&
         algorithm != Algorithm::kSplitterNet;
}

core::PathPolicy path_policy(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBallsIntoLeaves:
      return core::PathPolicy::kRandomWeighted;
    case Algorithm::kEarlyTerminating:
      return core::PathPolicy::kEarlyTerminating;
    case Algorithm::kRankDescent:
      return core::PathPolicy::kRankedSlack;
    case Algorithm::kHalving:
      return core::PathPolicy::kHalvingSplit;
    default:
      BIL_REQUIRE(false, "algorithm has no path policy");
      return core::PathPolicy::kRandomWeighted;
  }
}

std::vector<std::unique_ptr<sim::ProcessBase>> make_processes(
    const RunConfig& config,
    const std::shared_ptr<const tree::TreeShape>& shape,
    core::RecordingObserver* observer) {
  std::vector<std::unique_ptr<sim::ProcessBase>> processes;
  processes.reserve(config.n);
  const bool byzantine = config.adversary.byzantine > 0;
  for (sim::ProcessId id = 0; id < config.n; ++id) {
    const sim::Label label = config.label_offset + config.label_stride * id;
    const std::uint64_t seed =
        derive_seed(config.seed, core::kSeedDomainProcess, id);
    switch (config.algorithm) {
      case Algorithm::kGossip: {
        const std::uint32_t t =
            config.gossip_t == kWaitFree ? config.n - 1 : config.gossip_t;
        processes.push_back(std::make_unique<baselines::GossipRenamingProcess>(
            baselines::GossipRenamingProcess::Options{.label = label,
                                                      .max_crashes = t}));
        break;
      }
      case Algorithm::kNaiveBins:
        processes.push_back(std::make_unique<baselines::NaiveBinsProcess>(
            baselines::NaiveBinsProcess::Options{
                .num_bins = config.n, .label = label, .seed = seed}));
        break;
      case Algorithm::kSplitterNet:
        processes.push_back(std::make_unique<baselines::SplitterNetProcess>(
            baselines::SplitterNetProcess::Options{.n = config.n,
                                                   .label = label}));
        break;
      default:
        processes.push_back(
            std::make_unique<core::BallsIntoLeavesProcess>(
                core::BallsIntoLeavesProcess::Options{
                    .num_names = config.n,
                    .label = label,
                    .seed = seed,
                    .policy = path_policy(config.algorithm),
                    .termination = config.termination,
                    .shape = shape,
                    .observer =
                        id == config.n - 1 ? observer : nullptr,
                    .tolerate_byzantine = byzantine}));
        break;
    }
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
  // The splitter network renames into its grid's Θ((n+t)²) namespace, not
  // the tight 1..n namespace the tree algorithms and bins target.
  const std::uint64_t namespace_size =
      config.algorithm == Algorithm::kSplitterNet
          ? baselines::SplitterNetProcess::namespace_bound(
                config.n, config.adversary.crashes)
          : config.n;
  sim::validate_renaming(result, namespace_size);

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
