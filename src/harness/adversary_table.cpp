#include "harness/adversary_table.h"

#include <cstddef>
#include <iterator>

#include "core/byzantine_adversary.h"
#include "core/targeted_adversary.h"
#include "tree/shape.h"
#include "util/contract.h"

namespace bil::harness {

namespace {

using Shape = std::shared_ptr<const tree::TreeShape>;

std::unique_ptr<sim::Adversary> oblivious(const AdversarySpec& spec,
                                          std::uint32_t n,
                                          std::uint64_t seed,
                                          const Shape&) {
  return std::make_unique<sim::ObliviousCrashAdversary>(
      n,
      sim::ObliviousCrashAdversary::Options{.crashes = spec.crashes,
                                            .horizon_rounds = spec.horizon,
                                            .subset_policy = spec.subset},
      seed);
}

std::unique_ptr<sim::Adversary> burst(const AdversarySpec& spec,
                                      std::uint32_t, std::uint64_t seed,
                                      const Shape&) {
  return std::make_unique<sim::BurstCrashAdversary>(
      sim::BurstCrashAdversary::Options{.count = spec.crashes,
                                        .when = spec.when,
                                        .subset_policy = spec.subset,
                                        .lowest_ids = true},
      seed);
}

std::unique_ptr<sim::Adversary> sandwich(const AdversarySpec& spec,
                                         std::uint32_t, std::uint64_t,
                                         const Shape&) {
  // Fire from round 0 (the label exchange) on: the §6 collision pattern
  // needs the lowest ball to crash *while announcing its label*, so that
  // half the views count it when computing ranks and half do not.
  return std::make_unique<sim::SandwichAdversary>(
      sim::SandwichAdversary::Options{
          .offset = 0, .period = 1, .per_round = spec.per_round});
}

std::unique_ptr<sim::Adversary> eager(const AdversarySpec& spec,
                                      std::uint32_t, std::uint64_t seed,
                                      const Shape&) {
  return std::make_unique<sim::EagerCrashAdversary>(
      sim::EagerCrashAdversary::Options{.start_round = spec.when,
                                        .per_round = spec.per_round,
                                        .subset_policy = spec.subset},
      seed);
}

// Protocol-aware: reads outboxes, so it is not drivable through
// sim::make_schedule_view; the fast path feeds it synthesized round traffic
// instead (core/fast_sim_targeted.h).
template <core::TargetedCollisionAdversary::Mode kMode>
std::unique_ptr<sim::Adversary> targeted(const AdversarySpec& spec,
                                         std::uint32_t,
                                         std::uint64_t seed,
                                         const Shape& shape) {
  BIL_REQUIRE(shape != nullptr,
              "targeted adversaries require a tree-based algorithm");
  return std::make_unique<core::TargetedCollisionAdversary>(
      shape,
      core::TargetedCollisionAdversary::Options{.mode = kMode,
                                                .per_round = spec.per_round,
                                                .subset_policy = spec.subset},
      seed);
}

std::unique_ptr<sim::Adversary> bit_flip(const AdversarySpec& spec,
                                         std::uint32_t,
                                         std::uint64_t seed,
                                         const Shape&) {
  // start_round 1: the init round carries identity announcements, which
  // the paper's model takes as genuine (processes have authentic distinct
  // original names). A bit-flipped init that happens to decode with another
  // process's label would be identity theft one level below even the
  // Byzantine model — the engine authenticates senders, and labels are the
  // sender-level identities. Rounds >= 1 are fair game: garbled protocol
  // traffic must be absorbed.
  return std::make_unique<sim::ByzantineCorruptionAdversary>(
      sim::ByzantineCorruptionAdversary::Options{
          .byzantine = spec.byzantine,
          .start_round = 1,
          .rounds = spec.byzantine_rounds,
          .mode = sim::ByzantineCorruptionAdversary::Mode::kMixed},
      seed);
}

template <core::ByzantineLiarAdversary::Mode kMode>
std::unique_ptr<sim::Adversary> liar(const AdversarySpec& spec,
                                     std::uint32_t, std::uint64_t seed,
                                     const Shape& shape) {
  BIL_REQUIRE(shape != nullptr,
              "Byzantine liar adversaries require a tree-based algorithm");
  return std::make_unique<core::ByzantineLiarAdversary>(
      shape,
      core::ByzantineLiarAdversary::Options{.byzantine = spec.byzantine,
                                            .mode = kMode,
                                            .start_round = 1,
                                            .rounds = spec.byzantine_rounds},
      seed);
}

template <typename Scheduler>
std::unique_ptr<sim::DeliveryScheduler> delay_scheduler(
    const sim::DelaySpec& delay, std::uint64_t seed) {
  return std::make_unique<Scheduler>(delay, seed);
}

constexpr KnobSet kTargetedKnobs = {.crashes = true, .per_round = true,
                                    .subset = true};
constexpr KnobSet kByzantineKnobs = {.byzantine = true,
                                     .byzantine_rounds = true};

constexpr const char* kWinnerAliases[] = {"winner"};
constexpr const char* kAnnouncerAliases[] = {"announcer"};
constexpr const char* kBitFlipAliases[] = {"bitflip"};
constexpr const char* kLiarAliases[] = {"liar"};
constexpr const char* kEquivocatorAliases[] = {"equivocator"};
constexpr const char* kBoundedDelayAliases[] = {"delay"};
constexpr const char* kGstAliases[] = {"partial-synchrony"};

using TargetedMode = core::TargetedCollisionAdversary::Mode;
using LiarMode = core::ByzantineLiarAdversary::Mode;

constexpr AdversaryDescriptor kTable[] = {
    {.kind = AdversaryKind::kNone,
     .name = "none",
     .description = "failure-free execution",
     .route = FastSimRoute::kCrashFree},
    {.kind = AdversaryKind::kOblivious,
     .name = "oblivious",
     .description = "crashes planned before the run, spread over the first "
                    "`horizon` rounds",
     .route = FastSimRoute::kScheduleReplay,
     .reads = {.crashes = true, .horizon = true, .subset = true},
     .build_adversary = oblivious},
    {.kind = AdversaryKind::kBurst,
     .name = "burst",
     .description = "all crashes in one round, lowest ids first",
     .route = FastSimRoute::kScheduleReplay,
     .reads = {.crashes = true, .when = true, .subset = true},
     .build_adversary = burst},
    {.kind = AdversaryKind::kSandwich,
     .name = "sandwich",
     .description = "§6 label-exchange collision pattern: the lowest ball "
                    "crashes mid-announcement every round",
     .route = FastSimRoute::kScheduleReplay,
     .reads = {.crashes = true, .per_round = true},
     .build_adversary = sandwich},
    {.kind = AdversaryKind::kEager,
     .name = "eager",
     .description = "crashes `per_round` random processes every round from "
                    "`when` on",
     .route = FastSimRoute::kScheduleReplay,
     .reads = {.crashes = true, .when = true, .per_round = true,
               .subset = true},
     .build_adversary = eager},
    {.kind = AdversaryKind::kTargetedWinner,
     .name = "targeted-winner",
     .aliases = kWinnerAliases,
     .description = "protocol-aware: crashes the winning ball of the most "
                    "contended leaf (replayed symbolically by the "
                    "traffic-oracle fast path)",
     .route = FastSimRoute::kTrafficOracle,
     .reads = kTargetedKnobs,
     .build_adversary = targeted<TargetedMode::kContendedWinner>},
    {.kind = AdversaryKind::kTargetedAnnouncer,
     .name = "targeted-announcer",
     .aliases = kAnnouncerAliases,
     .description = "protocol-aware: crashes the deepest announcing ball "
                    "mid-broadcast (replayed symbolically by the "
                    "traffic-oracle fast path)",
     .route = FastSimRoute::kTrafficOracle,
     .reads = kTargetedKnobs,
     .build_adversary = targeted<TargetedMode::kDeepestAnnouncer>},
    {.kind = AdversaryKind::kByzantineBitFlip,
     .name = "byzantine-bitflip",
     .aliases = kBitFlipAliases,
     .description = "f senders' payloads garbled on the wire (bit flips / "
                    "truncation); undecodable traffic must read as silence",
     .fault_model = FaultModel::kByzantine,
     .reads = kByzantineKnobs,
     .build_adversary = bit_flip},
    {.kind = AdversaryKind::kByzantineLiar,
     .name = "byzantine-liar",
     .aliases = kLiarAliases,
     .description = "f senders each broadcast one stable forged leaf claim "
                    "(phantom occupancy, undetectable by construction)",
     .fault_model = FaultModel::kByzantine,
     .reads = kByzantineKnobs,
     .build_adversary = liar<LiarMode::kConsistentLies>},
    {.kind = AdversaryKind::kByzantineEquivocator,
     .name = "byzantine-equivocator",
     .aliases = kEquivocatorAliases,
     .description = "f senders tell each recipient a different forged path "
                    "claim; cap with --byzantine-rounds (unbounded "
                    "equivocation defers termination indefinitely)",
     .fault_model = FaultModel::kByzantine,
     .reads = kByzantineKnobs,
     .build_adversary = liar<LiarMode::kEquivocate>},
    {.kind = AdversaryKind::kBoundedDelay,
     .name = "bounded-delay",
     .aliases = kBoundedDelayAliases,
     .description = "every message batch delayed uniformly in [1, d] "
                    "virtual ticks (--delay d; d = 1 is bit-identical to "
                    "the synchronous run)",
     .fault_model = FaultModel::kDelay,
     .reads = {.max_delay = true, .timeout = true},
     .build_scheduler = delay_scheduler<sim::BoundedDelayScheduler>},
    {.kind = AdversaryKind::kGst,
     .name = "gst",
     .aliases = kGstAliases,
     .description = "partial synchrony: delays bounded by d before the "
                    "global stabilization tick (--gst), exactly one tick "
                    "after it — rounds-after-GST obeys the synchronous "
                    "O(log log n) contract",
     .fault_model = FaultModel::kDelay,
     .reads = {.max_delay = true, .gst = true, .timeout = true},
     .build_scheduler = delay_scheduler<sim::GstScheduler>},
};

// Entry i describes enum value i (tests/api_registry_test.cpp checks the
// order); adversary_descriptor indexes by kind.
static_assert(std::size(kTable) ==
                  static_cast<std::size_t>(AdversaryKind::kGst) + 1,
              "adversary_table() needs one row per AdversaryKind");

}  // namespace

const char* to_string(FaultModel model) noexcept {
  constexpr const char* kNames[] = {"crash", "byzantine", "delay"};
  const auto index = static_cast<std::size_t>(model);
  return index < std::size(kNames) ? kNames[index] : "unknown";
}

AdversarySpec AdversaryDescriptor::make(const AdversaryKnobs& knobs) const {
  AdversarySpec spec{.kind = kind, .delay = {}};
  const auto copy = [](bool read, auto& field, auto value) {
    if (read) {
      field = value;
    }
  };
  copy(reads.crashes, spec.crashes, knobs.crashes);
  copy(reads.when, spec.when, knobs.when);
  copy(reads.horizon, spec.horizon, knobs.horizon);
  copy(reads.per_round, spec.per_round, knobs.per_round);
  copy(reads.subset, spec.subset, knobs.subset);
  copy(reads.byzantine, spec.byzantine, knobs.byzantine);
  copy(reads.byzantine_rounds, spec.byzantine_rounds, knobs.byzantine_rounds);
  copy(reads.max_delay, spec.delay.max_delay, knobs.max_delay);
  copy(reads.gst, spec.delay.gst, knobs.gst);
  copy(reads.timeout, spec.delay.timeout, knobs.timeout);
  return spec;
}

std::span<const AdversaryDescriptor> adversary_table() noexcept {
  return kTable;
}

const AdversaryDescriptor& adversary_descriptor(AdversaryKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  BIL_REQUIRE(index < std::size(kTable),
              "adversary enum value is not registered");
  return kTable[index];
}

const char* to_string(AdversaryKind kind) noexcept {
  const auto index = static_cast<std::size_t>(kind);
  return index < std::size(kTable) ? kTable[index].name : "unknown";
}

bool is_delay_kind(AdversaryKind kind) noexcept {
  const auto index = static_cast<std::size_t>(kind);
  return index < std::size(kTable) &&
         kTable[index].fault_model == FaultModel::kDelay;
}

}  // namespace bil::harness
