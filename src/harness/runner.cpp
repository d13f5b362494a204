#include "harness/runner.h"

#include <memory>
#include <utility>

#include "baselines/gossip.h"
#include "baselines/naive_bins.h"
#include "baselines/splitter_net.h"
#include "core/byzantine_adversary.h"
#include "core/seeds.h"
#include "core/targeted_adversary.h"
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

const char* to_string(AdversaryKind kind) noexcept {
  switch (kind) {
    case AdversaryKind::kNone:
      return "none";
    case AdversaryKind::kOblivious:
      return "oblivious";
    case AdversaryKind::kBurst:
      return "burst";
    case AdversaryKind::kSandwich:
      return "sandwich";
    case AdversaryKind::kEager:
      return "eager";
    case AdversaryKind::kTargetedWinner:
      return "targeted-winner";
    case AdversaryKind::kTargetedAnnouncer:
      return "targeted-announcer";
    case AdversaryKind::kByzantineBitFlip:
      return "byzantine-bitflip";
    case AdversaryKind::kByzantineLiar:
      return "byzantine-liar";
    case AdversaryKind::kByzantineEquivocator:
      return "byzantine-equivocator";
    case AdversaryKind::kBoundedDelay:
      return "bounded-delay";
    case AdversaryKind::kGst:
      return "gst";
  }
  return "unknown";
}

bool is_delay_kind(AdversaryKind kind) noexcept {
  return kind == AdversaryKind::kBoundedDelay || kind == AdversaryKind::kGst;
}

namespace {

core::PathPolicy policy_for(Algorithm algorithm) {
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

}  // namespace

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
                    .policy = policy_for(config.algorithm),
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
  const std::uint64_t seed =
      derive_seed(run_seed, core::kSeedDomainAdversary, 0);
  switch (spec.kind) {
    case AdversaryKind::kNone:
      return nullptr;
    // Delay kinds are schedulers, not crash/corruption adversaries: they
    // have no sim::Adversary form. make_scheduler is their factory.
    case AdversaryKind::kBoundedDelay:
    case AdversaryKind::kGst:
      BIL_REQUIRE(false,
                  "delay adversaries assume the DeliveryScheduler role; "
                  "build them through make_scheduler, not make_adversary");
      return nullptr;
    case AdversaryKind::kOblivious:
      return std::make_unique<sim::ObliviousCrashAdversary>(
          n,
          sim::ObliviousCrashAdversary::Options{
              .crashes = spec.crashes,
              .horizon_rounds = spec.horizon,
              .subset_policy = spec.subset},
          seed);
    case AdversaryKind::kBurst:
      return std::make_unique<sim::BurstCrashAdversary>(
          sim::BurstCrashAdversary::Options{.count = spec.crashes,
                                            .when = spec.when,
                                            .subset_policy = spec.subset,
                                            .lowest_ids = true},
          seed);
    case AdversaryKind::kSandwich:
      // Fire from round 0 (the label exchange) on: the §6 collision pattern
      // needs the lowest ball to crash *while announcing its label*, so that
      // half the views count it when computing ranks and half do not.
      return std::make_unique<sim::SandwichAdversary>(
          sim::SandwichAdversary::Options{
              .offset = 0, .period = 1, .per_round = spec.per_round});
    case AdversaryKind::kEager:
      return std::make_unique<sim::EagerCrashAdversary>(
          sim::EagerCrashAdversary::Options{.start_round = spec.when,
                                            .per_round = spec.per_round,
                                            .subset_policy = spec.subset},
          seed);
    // Protocol-aware kinds below read outboxes — not drivable through
    // sim::make_schedule_view; the fast path feeds them synthesized round
    // traffic instead (core/fast_sim_targeted.h).
    case AdversaryKind::kTargetedWinner:
    case AdversaryKind::kTargetedAnnouncer: {
      BIL_REQUIRE(shape != nullptr,
                  "targeted adversaries require a tree-based algorithm");
      const auto mode = spec.kind == AdversaryKind::kTargetedWinner
                            ? core::TargetedCollisionAdversary::Mode::
                                  kContendedWinner
                            : core::TargetedCollisionAdversary::Mode::
                                  kDeepestAnnouncer;
      return std::make_unique<core::TargetedCollisionAdversary>(
          shape,
          core::TargetedCollisionAdversary::Options{
              .mode = mode,
              .per_round = spec.per_round,
              .subset_policy = spec.subset},
          seed);
    }
    // Byzantine kinds draw from their own seed domain so that adding wire
    // corruption to a run never perturbs a crash schedule it rides on. A
    // zero budget means nobody corrupts anything: return no adversary at
    // all, so f = 0 is *literally* the failure-free run (and non-tree
    // algorithms never trip the shape requirement below).
    case AdversaryKind::kByzantineBitFlip:
      if (spec.byzantine == 0) {
        return nullptr;
      }
      // start_round 1: the init round carries identity announcements, which
      // the paper's model takes as genuine (processes have authentic
      // distinct original names). A bit-flipped init that happens to decode
      // with another process's label would be identity theft one level
      // below even the Byzantine model — the engine authenticates senders,
      // and labels are the sender-level identities. Rounds >= 1 are fair
      // game: garbled protocol traffic must be absorbed.
      return std::make_unique<sim::ByzantineCorruptionAdversary>(
          sim::ByzantineCorruptionAdversary::Options{
              .byzantine = spec.byzantine,
              .start_round = 1,
              .rounds = spec.byzantine_rounds,
              .mode = sim::ByzantineCorruptionAdversary::Mode::kMixed},
          derive_seed(run_seed, core::kSeedDomainByzantine, 0));
    case AdversaryKind::kByzantineLiar:
    case AdversaryKind::kByzantineEquivocator: {
      if (spec.byzantine == 0) {
        return nullptr;
      }
      BIL_REQUIRE(shape != nullptr,
                  "Byzantine liar adversaries require a tree-based algorithm");
      const auto mode = spec.kind == AdversaryKind::kByzantineLiar
                            ? core::ByzantineLiarAdversary::Mode::kConsistentLies
                            : core::ByzantineLiarAdversary::Mode::kEquivocate;
      return std::make_unique<core::ByzantineLiarAdversary>(
          shape,
          core::ByzantineLiarAdversary::Options{
              .byzantine = spec.byzantine,
              .mode = mode,
              .start_round = 1,
              .rounds = spec.byzantine_rounds},
          derive_seed(run_seed, core::kSeedDomainByzantine, 0));
    }
  }
  return nullptr;
}

std::unique_ptr<sim::DeliveryScheduler> make_scheduler(
    const AdversarySpec& spec, std::uint32_t n, std::uint64_t run_seed,
    const std::shared_ptr<const tree::TreeShape>& shape) {
  if (!is_delay_kind(spec.kind)) {
    return std::make_unique<sim::SynchronousScheduler>(
        make_adversary(spec, n, run_seed, shape));
  }
  BIL_REQUIRE(spec.crashes == 0 && spec.byzantine == 0,
              "delay adversaries schedule message delivery, not failures: "
              "delay runs are crash-free — drop the "
              "crash/Byzantine budgets or use a synchronous adversary kind");
  const std::uint64_t seed = derive_seed(run_seed, core::kSeedDomainDelay, 0);
  if (spec.kind == AdversaryKind::kBoundedDelay) {
    return std::make_unique<sim::BoundedDelayScheduler>(spec.delay, seed);
  }
  return std::make_unique<sim::GstScheduler>(spec.delay, seed);
}

RunSummary run_renaming(const RunConfig& config) {
  BIL_REQUIRE(config.n >= 1, "need at least one process");
  BIL_REQUIRE(config.label_stride >= 1, "labels must be strictly monotone");
  BIL_REQUIRE(config.gossip_t == kWaitFree || config.gossip_t <= config.n - 1,
              "gossip_t must be kWaitFree or a crash budget t <= n-1 (t < n: "
              "at least one process survives)");

  const bool tree_based = config.algorithm == Algorithm::kBallsIntoLeaves ||
                          config.algorithm == Algorithm::kEarlyTerminating ||
                          config.algorithm == Algorithm::kRankDescent ||
                          config.algorithm == Algorithm::kHalving;
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
