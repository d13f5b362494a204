#include "sim/scheduler.h"

#include "util/contract.h"

namespace bil::sim {

DeliveryScheduler::~DeliveryScheduler() = default;

BoundedDelayScheduler::BoundedDelayScheduler(const DelaySpec& spec,
                                             std::uint64_t seed)
    : spec_(spec), rng_(seed) {
  BIL_REQUIRE(spec_.max_delay >= 1,
              "bounded-delay scheduler needs max_delay >= 1 (a zero delay "
              "would deliver a batch before it was sent)");
}

VirtualTime BoundedDelayScheduler::deliver_at(const SendBatch& batch) {
  // d = 1 must consume no randomness: it makes the bounded-delay run
  // bit-identical to the synchronous scheduler (rng state, metrics, names),
  // which is the baseline the benchmark's delay cell and the equivalence
  // tests compare against.
  if (spec_.max_delay == 1) {
    return batch.send_tick + 1;
  }
  return batch.send_tick + 1 + rng_.below(spec_.max_delay);
}

GstScheduler::GstScheduler(const DelaySpec& spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {
  BIL_REQUIRE(spec_.max_delay >= 1,
              "GST scheduler needs a pre-GST max_delay >= 1");
}

VirtualTime GstScheduler::deliver_at(const SendBatch& batch) {
  // Synchrony holds from GST on; and, as above, a degenerate pre-GST bound
  // of 1 draws nothing.
  if (batch.send_tick >= spec_.gst || spec_.max_delay == 1) {
    return batch.send_tick + 1;
  }
  return batch.send_tick + 1 + rng_.below(spec_.max_delay);
}

}  // namespace bil::sim
