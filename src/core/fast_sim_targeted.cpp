#include "core/fast_sim_targeted.h"

#include "core/messages.h"
#include "sim/oracle_view.h"
#include "tree/local_view.h"

namespace bil::core {

namespace {

/// Synthesizes each round's protocol traffic from the simulator's symbolic
/// state (see the header for the per-round-parity message reconstruction
/// and the bit-identity argument).
class TrafficOracle final : public AdversaryViewOracle {
 public:
  explicit TrafficOracle(std::uint32_t n) : traffic_(n) {}

  [[nodiscard]] sim::RoundView round_view(
      sim::RoundNumber round, std::span<const sim::ProcessId> alive,
      std::uint32_t crash_budget_remaining,
      const tree::LocalTreeView& canonical,
      std::span<const tree::NodeId> targets) override {
    traffic_.begin_round();
    for (const sim::ProcessId id : alive) {
      // Fast-sim compatibility pins labels to ids (api::backend), so the
      // label each ball announces is its process id. Each message is
      // encoded into the slot its sender's outbox recycles from the
      // previous round: no allocation per message in steady state.
      const auto label = static_cast<sim::Label>(id);
      wire::Buffer& slot = traffic_.broadcast_slot(id);
      if (round == 0) {
        encode_message_into(InitMsg{label}, slot);
      } else if (round % 2 == 1) {
        encode_message_into(
            PathMsg{label, canonical.current(label), targets[id]}, slot);
      } else {
        encode_message_into(PositionMsg{label, canonical.current(label)},
                            slot);
      }
    }
    return traffic_.view(round, alive, crash_budget_remaining);
  }

 private:
  sim::SynthesizedTraffic traffic_;
};

}  // namespace

CrashFastSimResult run_fast_sim_targeted(const CrashFastSimOptions& options,
                                         sim::Adversary* adversary) {
  TrafficOracle oracle(options.n);
  return run_fast_sim_crash(options, adversary, &oracle);
}

}  // namespace bil::core
