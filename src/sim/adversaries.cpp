#include "sim/adversaries.h"

#include <algorithm>

#include "util/contract.h"

namespace bil::sim {

void NoFailureAdversary::schedule(const RoundView& /*view*/,
                                  CrashPlan& /*plan*/) {}

std::vector<ProcessId> make_delivery_subset(const RoundView& view,
                                            ProcessId victim,
                                            SubsetPolicy policy, Rng& rng) {
  std::vector<ProcessId> subset;
  switch (policy) {
    case SubsetPolicy::kSilent:
      break;
    case SubsetPolicy::kAlternating: {
      bool include = true;
      for (ProcessId id : view.alive()) {
        if (id == victim) {
          continue;
        }
        if (include) {
          subset.push_back(id);
        }
        include = !include;
      }
      break;
    }
    case SubsetPolicy::kRandomHalf:
      for (ProcessId id : view.alive()) {
        if (id != victim && rng.bernoulli_ratio(1, 2)) {
          subset.push_back(id);
        }
      }
      break;
    case SubsetPolicy::kAll:
      for (ProcessId id : view.alive()) {
        if (id != victim) {
          subset.push_back(id);
        }
      }
      break;
  }
  return subset;
}

ObliviousCrashAdversary::ObliviousCrashAdversary(std::uint32_t num_processes,
                                                 Options options,
                                                 std::uint64_t seed)
    : subset_policy_(options.subset_policy), rng_(seed) {
  BIL_REQUIRE(options.crashes < num_processes,
              "oblivious adversary cannot crash every process");
  BIL_REQUIRE(options.horizon_rounds >= 1, "crash horizon must be positive");
  // Choose `crashes` distinct victims by a partial Fisher-Yates shuffle.
  std::vector<ProcessId> ids(num_processes);
  for (ProcessId id = 0; id < num_processes; ++id) {
    ids[id] = id;
  }
  for (std::uint32_t i = 0; i < options.crashes; ++i) {
    const std::uint64_t j =
        i + rng_.below(static_cast<std::uint64_t>(num_processes) - i);
    std::swap(ids[i], ids[j]);
    planned_.push_back(PlannedCrash{
        ids[i], static_cast<RoundNumber>(rng_.below(options.horizon_rounds))});
  }
}

void ObliviousCrashAdversary::schedule(const RoundView& view,
                                       CrashPlan& plan) {
  for (const PlannedCrash& planned : planned_) {
    if (planned.round != view.round() || !view.is_alive(planned.victim)) {
      continue;
    }
    if (plan.crashes().size() >= view.crash_budget_remaining()) {
      return;
    }
    plan.crash(planned.victim,
               make_delivery_subset(view, planned.victim, subset_policy_,
                                    rng_));
  }
}

BurstCrashAdversary::BurstCrashAdversary(Options options, std::uint64_t seed)
    : options_(options), rng_(seed) {}

void BurstCrashAdversary::schedule(const RoundView& view, CrashPlan& plan) {
  if (view.round() != options_.when) {
    return;
  }
  const std::span<const ProcessId> victims = view.alive();
  const std::uint32_t budget =
      std::min(options_.count, view.crash_budget_remaining());
  for (std::uint32_t i = 0; i < budget && i < victims.size(); ++i) {
    plan.crash(victims[i], make_delivery_subset(view, victims[i],
                                                options_.subset_policy, rng_));
  }
}

void SandwichAdversary::schedule(const RoundView& view, CrashPlan& plan) {
  const RoundNumber round = view.round();
  if (round < options_.offset ||
      (round - options_.offset) % options_.period != 0) {
    return;
  }
  // The alternating subset must be computed against the set of processes
  // that stay alive, so victims are excluded inside make_delivery_subset.
  Rng unused(0);
  const std::uint32_t budget =
      std::min(options_.per_round, view.crash_budget_remaining());
  std::uint32_t scheduled = 0;
  for (ProcessId id : view.alive()) {
    if (scheduled == budget) {
      break;
    }
    plan.crash(id, make_delivery_subset(view, id, SubsetPolicy::kAlternating,
                                        unused));
    ++scheduled;
  }
}

EagerCrashAdversary::EagerCrashAdversary(Options options, std::uint64_t seed)
    : options_(options), rng_(seed) {}

void EagerCrashAdversary::schedule(const RoundView& view, CrashPlan& plan) {
  if (view.round() < options_.start_round) {
    return;
  }
  const std::uint32_t budget =
      std::min(options_.per_round, view.crash_budget_remaining());
  std::uint32_t scheduled = 0;
  for (ProcessId id : view.alive()) {
    if (scheduled == budget) {
      break;
    }
    plan.crash(id, make_delivery_subset(view, id, options_.subset_policy,
                                        rng_));
    ++scheduled;
  }
}

ByzantineCorruptionAdversary::ByzantineCorruptionAdversary(Options options,
                                                           std::uint64_t seed)
    : options_(options), rng_(seed) {}

void ByzantineCorruptionAdversary::schedule(const RoundView& /*view*/,
                                            CrashPlan& /*plan*/) {}

void ByzantineCorruptionAdversary::corrupt(const RoundView& view,
                                           CorruptionPlan& plan) {
  const RoundNumber round = view.round();
  if (round < options_.start_round ||
      (options_.rounds != 0 &&
       round >= options_.start_round + options_.rounds)) {
    return;
  }
  for (ProcessId sender = 0; sender < options_.byzantine; ++sender) {
    if (!view.is_alive(sender) || view.outgoing(sender).empty()) {
      continue;
    }
    std::vector<wire::Buffer> mutated;
    mutated.reserve(view.outgoing(sender).size());
    for (const OutboundMessage& message : view.outgoing(sender)) {
      wire::Buffer garbled(message.payload->begin(), message.payload->end());
      switch (rng_.below(3)) {
        case 0:  // bit flips
          if (!garbled.empty()) {
            const std::uint64_t flips = rng_.between(1, 8);
            for (std::uint64_t i = 0; i < flips; ++i) {
              const std::uint64_t bit = rng_.below(garbled.size() * 8);
              garbled[bit / 8] ^=
                  static_cast<std::byte>(std::uint8_t{1} << (bit % 8));
            }
          }
          break;
        case 1:  // truncation
          garbled.resize(rng_.below(garbled.size() + 1));
          break;
        default: {  // length lie: trailing junk bytes
          const std::uint64_t extra = rng_.between(1, 8);
          for (std::uint64_t i = 0; i < extra; ++i) {
            garbled.push_back(static_cast<std::byte>(rng_.below(256)));
          }
          break;
        }
      }
      mutated.push_back(std::move(garbled));
    }
    plan.rewrite_all(sender, std::move(mutated));
  }
}

}  // namespace bil::sim
