#include "api/backend.h"

#include <limits>

#include "api/registry.h"
#include "core/fast_sim_crash.h"
#include "core/fast_sim_targeted.h"
#include "tree/shape.h"
#include "util/contract.h"

namespace bil::api {

const char* to_string(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kAuto:
      return "auto";
    case BackendKind::kEngine:
      return "engine";
    case BackendKind::kFastSim:
      return "fast-sim";
  }
  return "unknown";
}

RunRecord EngineBackend::run(const CellConfig& cell,
                             std::uint64_t seed) const {
  harness::RunConfig config;
  config.algorithm = cell.algorithm;
  config.n = cell.n;
  config.seed = seed;
  config.adversary = cell.adversary;
  config.termination = cell.termination;
  config.max_rounds = cell.max_rounds;
  config.gossip_t = cell.gossip_t;
  config.label_offset = cell.label_offset;
  config.label_stride = cell.label_stride;
  config.engine_threads = engine_threads_;
  config.trace = trace_;
  const harness::RunSummary summary = harness::run_renaming(config);

  RunRecord record;
  record.seed = seed;
  record.rounds = summary.rounds;
  record.total_rounds = summary.total_rounds;
  record.crashes = summary.crashes;
  record.messages_delivered = summary.messages_delivered;
  record.bytes_delivered = summary.bytes_delivered;
  record.max_payload_bytes = summary.raw.metrics.max_payload_bytes;
  record.names.reserve(summary.raw.outcomes.size());
  for (const sim::ProcessOutcome& outcome : summary.raw.outcomes) {
    record.names.push_back(outcome.crashed ? 0 : outcome.name);
  }
  return record;
}

RunRecord FastSimBackend::run(const CellConfig& cell,
                              std::uint64_t seed) const {
  const std::string incompatibility = fast_sim_incompatibility(cell);
  BIL_REQUIRE(incompatibility.empty(), incompatibility);
  RunRecord record;
  record.seed = seed;
  // Payloads are never materialized on the fast path; byte counts are
  // absent (JSON null), never fake zeros.
  record.bytes_measured = false;

  // Replay the exact adversary object the engine harness would construct
  // for this (spec, n, seed) — null for a crash-free cell — so victim
  // choices, crash rounds and delivery-subset coins are bit-identical
  // (core/fast_sim_crash.h). The traffic-oracle kinds additionally need the
  // tree shape their decode logic measures depths against — TreeShape::make
  // is a pure function of n, so a fresh shape is the engine's shape — and
  // are driven through synthesized round traffic (core/fast_sim_targeted.h).
  const bool oracle = adversary_info(cell.adversary.kind).route ==
                      harness::FastSimRoute::kTrafficOracle;
  const std::unique_ptr<sim::Adversary> adversary = harness::make_adversary(
      cell.adversary, cell.n, seed,
      oracle ? tree::TreeShape::make(cell.n) : nullptr);
  core::CrashFastSimOptions options;
  options.n = cell.n;
  options.seed = seed;
  options.policy = algorithm_info(cell.algorithm).policy;
  options.max_crashes = cell.adversary.crashes;
  const core::CrashFastSimResult result =
      oracle ? core::run_fast_sim_targeted(options, adversary.get())
             : core::run_fast_sim_crash(options, adversary.get());
  core::validate_fast_names(result.names, cell.n, result.crashes);
  record.rounds = result.rounds;
  record.total_rounds = result.total_rounds;
  record.crashes = result.crashes;
  record.messages_delivered = result.deliveries;
  record.names = result.names;
  return record;
}

bool fast_sim_compatible(const CellConfig& cell) {
  return fast_sim_incompatibility(cell).empty();
}

std::string fast_sim_incompatibility(const CellConfig& cell) {
  if (!algorithm_info(cell.algorithm).fast_sim_capable) {
    return "fast-sim cannot execute algorithm '" +
           algorithm_info(cell.algorithm).name +
           "' (not tree-based; only the tree-descent algorithms have a "
           "single-view symbolic execution) — use --backend engine";
  }
  const AdversaryInfo& info = adversary_info(cell.adversary.kind);
  if (!info.fast_sim_capable()) {
    const std::string name = info.name;
    if (info.fault_model == harness::FaultModel::kByzantine) {
      return "fast-sim cannot replay adversary '" + name +
             "': Byzantine corruption rewrites materialized per-recipient "
             "wire traffic, which the single-view symbolic execution has no "
             "representation for — use --backend engine";
    }
    if (info.fault_model == harness::FaultModel::kDelay) {
      return "fast-sim cannot replay adversary '" + name +
             "': delay scheduling is an engine concept — the adversary "
             "assumes the DeliveryScheduler role in the engine's round loop, "
             "and the single-view symbolic execution has no virtual clock — "
             "use --backend engine";
    }
    return "fast-sim cannot replay adversary '" + name +
           "' symbolically — use --backend engine";
  }
  if (cell.termination != core::TerminationMode::kGlobal) {
    return "fast-sim requires global termination (the cell selects a "
           "different termination mode) — use --backend engine";
  }
  if (cell.max_rounds != 0) {
    return "fast-sim requires an uncapped run (the cell sets a round cap) "
           "— use --backend engine";
  }
  if (cell.label_offset != 0 || cell.label_stride != 1) {
    return "fast-sim requires default labelling (the cell sets a label "
           "offset/stride) — use --backend engine";
  }
  return {};
}

std::uint32_t auto_fast_sim_min_n(harness::FastSimRoute route) noexcept {
  // Indexed by route: crash-free, schedule replay, traffic oracle, engine
  // only.
  constexpr std::uint32_t kMinN[] = {
      kAutoFastSimMinN, kAutoFastSimCrashMinN, kAutoFastSimTargetedMinN,
      std::numeric_limits<std::uint32_t>::max()};
  return kMinN[static_cast<std::size_t>(route)];
}

BackendKind select_backend(const CellConfig& cell) {
  switch (cell.backend) {
    case BackendKind::kEngine:
      return BackendKind::kEngine;
    case BackendKind::kFastSim: {
      const std::string incompatibility = fast_sim_incompatibility(cell);
      BIL_REQUIRE(incompatibility.empty(), incompatibility);
      return BackendKind::kFastSim;
    }
    case BackendKind::kAuto: {
      const std::uint32_t min_n =
          auto_fast_sim_min_n(adversary_info(cell.adversary.kind).route);
      return fast_sim_compatible(cell) && cell.n >= min_n
                 ? BackendKind::kFastSim
                 : BackendKind::kEngine;
    }
  }
  return BackendKind::kEngine;
}

std::unique_ptr<Backend> make_backend(BackendKind kind,
                                      std::uint32_t engine_threads) {
  switch (kind) {
    case BackendKind::kEngine:
      return std::make_unique<EngineBackend>(nullptr, engine_threads);
    case BackendKind::kFastSim:
      return std::make_unique<FastSimBackend>();
    case BackendKind::kAuto:
      break;
  }
  BIL_REQUIRE(false, "make_backend needs a concrete kind (engine|fast-sim), "
                     "not auto — resolve with select_backend first");
  return nullptr;
}

BackendKind parse_backend(std::string_view name) {
  if (name == "auto") {
    return BackendKind::kAuto;
  }
  if (name == "engine") {
    return BackendKind::kEngine;
  }
  if (name == "fast-sim" || name == "fastsim") {
    return BackendKind::kFastSim;
  }
  BIL_REQUIRE(false, "unknown backend '" + std::string(name) +
                         "' (expected auto|engine|fast-sim)");
  return BackendKind::kAuto;
}

}  // namespace bil::api
