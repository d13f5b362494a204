#include "api/backend.h"

#include "api/registry.h"
#include "core/fast_sim.h"
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

namespace {

/// Validates a fast-sim run to the engine path's standard
/// (sim::validate_renaming): every correct ball decided (exactly `crashes`
/// balls carry the crashed sentinel 0), names lie in 1..n, no duplicates.
void validate_fast_names(const std::vector<std::uint64_t>& names,
                         std::uint32_t n, std::uint32_t crashes) {
  std::vector<bool> used(n + 1, false);
  std::uint32_t undecided = 0;
  for (std::uint64_t name : names) {
    if (name == 0) {
      ++undecided;  // crashed balls owe nothing
      continue;
    }
    BIL_ENSURE(name <= n, "fast sim name out of range");
    BIL_ENSURE(!used[name], "fast sim assigned a duplicate name");
    used[name] = true;
  }
  BIL_ENSURE(undecided == crashes,
             "fast sim left a correct ball without a name");
}

}  // namespace

RunRecord FastSimBackend::run(const CellConfig& cell,
                              std::uint64_t seed) const {
  const std::string incompatibility = fast_sim_incompatibility(cell);
  BIL_REQUIRE(incompatibility.empty(), incompatibility);
  RunRecord record;
  record.seed = seed;
  // Payloads are never materialized on either fast path; byte counts are
  // absent (JSON null), never fake zeros.
  record.bytes_measured = false;

  if (cell.adversary.kind == harness::AdversaryKind::kNone) {
    core::FastSimOptions options;
    options.n = cell.n;
    options.seed = seed;
    options.policy = algorithm_info(cell.algorithm).policy;
    const core::FastSimResult result = core::run_fast_sim(options);
    BIL_ENSURE(result.completed, "fast sim hit its phase cap");
    validate_fast_names(result.names, cell.n, 0);
    record.rounds = result.rounds();
    record.total_rounds = result.rounds();
    // Crash-free all-broadcast protocol: every round each of the n
    // processes broadcasts once and all n receive (processes halt only
    // after the final delivery), so the engine would have measured exactly
    // n² deliveries per round.
    record.messages_delivered = static_cast<std::uint64_t>(cell.n) * cell.n *
                                record.total_rounds;
    record.names = result.names;
    return record;
  }

  // Crash cell: replay the exact adversary object the engine harness would
  // construct for this (spec, n, seed), so victim choices, crash rounds and
  // delivery-subset coins are bit-identical (core/fast_sim_crash.h). The
  // protocol-aware targeted kinds additionally need the tree shape their
  // decode logic measures depths against — TreeShape::make is a pure
  // function of n, so a fresh shape is the engine's shape — and are driven
  // through the traffic oracle (core/fast_sim_targeted.h).
  const bool targeted =
      cell.adversary.kind == harness::AdversaryKind::kTargetedWinner ||
      cell.adversary.kind == harness::AdversaryKind::kTargetedAnnouncer;
  const std::unique_ptr<sim::Adversary> adversary = harness::make_adversary(
      cell.adversary, cell.n, seed,
      targeted ? tree::TreeShape::make(cell.n) : nullptr);
  core::CrashFastSimOptions options;
  options.n = cell.n;
  options.seed = seed;
  options.policy = algorithm_info(cell.algorithm).policy;
  options.max_crashes = cell.adversary.crashes;
  const core::CrashFastSimResult result =
      targeted ? core::run_fast_sim_targeted(options, adversary.get())
               : core::run_fast_sim_crash(options, adversary.get());
  validate_fast_names(result.names, cell.n, result.crashes);
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
  if (!adversary_info(cell.adversary.kind).fast_sim_capable) {
    const AdversaryInfo& info = adversary_info(cell.adversary.kind);
    if (info.fault_model == "byzantine") {
      return "fast-sim cannot replay adversary '" + info.name +
             "': Byzantine corruption rewrites materialized per-recipient "
             "wire traffic, which the single-view symbolic execution has no "
             "representation for — use --backend engine";
    }
    if (info.fault_model == "delay") {
      return "fast-sim cannot replay adversary '" + info.name +
             "': delay scheduling is an engine concept — the adversary "
             "assumes the DeliveryScheduler role in the engine's round loop, "
             "and the single-view symbolic execution has no virtual clock — "
             "use --backend engine";
    }
    return "fast-sim cannot replay adversary '" + info.name +
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
      const bool targeted =
          cell.adversary.kind == harness::AdversaryKind::kTargetedWinner ||
          cell.adversary.kind == harness::AdversaryKind::kTargetedAnnouncer;
      const std::uint32_t min_n =
          cell.adversary.kind == harness::AdversaryKind::kNone
              ? kAutoFastSimMinN
              : (targeted ? kAutoFastSimTargetedMinN : kAutoFastSimCrashMinN);
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
