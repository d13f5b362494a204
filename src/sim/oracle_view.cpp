#include "sim/oracle_view.h"

#include "util/contract.h"

namespace bil::sim {

SynthesizedTraffic::SynthesizedTraffic(std::uint32_t num_processes)
    : outboxes_(num_processes) {
  used_.reserve(num_processes);
}

void SynthesizedTraffic::begin_round() {
  for (const ProcessId sender : used_) {
    outboxes_[sender].clear();
  }
  used_.clear();
}

wire::Buffer& SynthesizedTraffic::broadcast_slot(ProcessId sender) {
  BIL_REQUIRE(sender < outboxes_.size(),
              "synthesized traffic sender id out of range");
  used_.push_back(sender);
  return outboxes_[sender].broadcast_slot();
}

}  // namespace bil::sim
