#include "api/churn.h"

#include <memory>
#include <string>
#include <utility>

#include "util/contract.h"

namespace bil::api {

namespace {

/// The cell template for one instance of `participants` balls. Everything
/// but n is inherited from the churn cell; the adversary is absent by
/// churn-mode validation (sweep.cpp).
CellConfig instance_cell(const CellConfig& cell, std::uint32_t participants) {
  CellConfig inst = cell;
  inst.n = participants;
  inst.adversary = {};
  return inst;
}

}  // namespace

BackendKind churn_instance_backend(const CellConfig& cell) {
  switch (cell.backend) {
    case BackendKind::kEngine:
      return BackendKind::kEngine;
    case BackendKind::kFastSim:
      return BackendKind::kFastSim;
    case BackendKind::kAuto:
      break;
  }
  // Compatibility is independent of n (algorithm family, termination), so
  // probing with a placeholder size answers for every batch
  // the horizon will produce.
  return fast_sim_compatible(instance_cell(cell, 2)) ? BackendKind::kFastSim
                                                     : BackendKind::kEngine;
}

service::InstanceRunner make_instance_runner(const CellConfig& cell,
                                             std::uint32_t engine_threads) {
  const BackendKind kind = churn_instance_backend(cell);
  if (kind == BackendKind::kFastSim) {
    // Validate once up front: an explicit fast-sim request for an
    // incompatible algorithm should fail before the horizon starts.
    BIL_REQUIRE(fast_sim_compatible(instance_cell(cell, 2)),
                "churn cell requests the fast-sim backend but its instances "
                "are outside the fast-sim domain");
  }
  std::shared_ptr<Backend> backend = make_backend(kind, engine_threads);
  CellConfig cell_template = cell;
  return [backend = std::move(backend), cell_template](
             std::uint32_t participants,
             std::uint64_t seed) -> service::InstanceOutcome {
    const RunRecord record =
        backend->run(instance_cell(cell_template, participants), seed);
    service::InstanceOutcome outcome;
    outcome.rounds = record.rounds;
    outcome.messages = record.messages_delivered;
    outcome.ranks = record.names;
    return outcome;
  };
}

service::ServiceMetrics run_churn_cell(const CellConfig& cell,
                                       const service::ChurnSpec& churn,
                                       std::uint64_t seed,
                                       std::uint32_t engine_threads,
                                       service::ServiceObserver* observer) {
  BIL_REQUIRE(churn.enabled(), "run_churn_cell needs an enabled ChurnSpec");
  BIL_REQUIRE(cell.adversary.kind == harness::AdversaryKind::kNone,
              "churn mode runs crash-free instances; drop the adversary");
  service::ServiceConfig config;
  config.churn = churn;
  config.n = cell.n;
  config.seed = seed;
  config.observer = observer;
  service::RenamingService service(
      config, make_instance_runner(cell, engine_threads));
  return service.run();
}

}  // namespace bil::api
