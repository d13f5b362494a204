// The adversary table: one descriptor per adversary kind, holding every
// fact about it — name and aliases, fault model, fast-sim route, the knobs
// its spec reads, whether it needs a tree, and its factory. The runner, the
// api registry, backend selection and the adversary search all read it;
// adding a kind means one enum value and one row.
//
// The table is constexpr (C strings, flags, function pointers), so it is
// constant-initialized: no static initializer in another translation unit
// can read it before it exists. Its text is `const char*`, not
// std::string_view, because harness::to_string returns it and callers copy
// it into std::strings.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "sim/adversaries.h"
#include "sim/scheduler.h"

namespace bil::tree {
class TreeShape;
}  // namespace bil::tree

namespace bil::harness {

/// Which strategy attacks the run. Each value is described once, by its
/// row of adversary_table(): name, fault model, fast-sim route, the knobs
/// it reads, and the factory that builds it.
enum class AdversaryKind : std::uint8_t {
  kNone,
  kOblivious,
  kBurst,
  kSandwich,
  kEager,
  kTargetedWinner,
  kTargetedAnnouncer,
  kByzantineBitFlip,
  kByzantineLiar,
  /// Cap with AdversarySpec::byzantine_rounds: unbounded equivocation can
  /// postpone termination (core/byzantine_adversary.h).
  kByzantineEquivocator,
  kBoundedDelay,
  kGst,
};

struct AdversarySpec {
  AdversaryKind kind = AdversaryKind::kNone;
  /// Crash budget t (and the planned crash count for oblivious/burst).
  std::uint32_t crashes = 0;
  /// Burst round / eager start round.
  sim::RoundNumber when = 1;
  /// Oblivious crash-round horizon.
  sim::RoundNumber horizon = 8;
  /// Victims per firing round (sandwich/eager/targeted).
  std::uint32_t per_round = 1;
  sim::SubsetPolicy subset = sim::SubsetPolicy::kRandomHalf;
  /// Byzantine budget f for the kByzantine* kinds: processes 0..f-1 have
  /// their outgoing wire traffic rewritten. Requires a tree-based algorithm
  /// (the validation layer lives in BallsIntoLeavesProcess) and forbids
  /// TerminationMode::kEagerLeaf (a forged leaf claim could force a
  /// premature, conflicting decision). Seeded from kSeedDomainByzantine, so
  /// combining with a crash budget never perturbs the crash schedule.
  std::uint32_t byzantine = 0;
  /// Corrupting-round budget for kByzantine* kinds; 0 = every round. The
  /// equivocator should set this (see AdversaryKind::kByzantineEquivocator).
  sim::RoundNumber byzantine_rounds = 0;
  /// Timing knobs for the delay kinds (kBoundedDelay / kGst): delay bound,
  /// GST tick, and the on_timeout budget. Ignored by the synchronous kinds.
  /// The defaults describe lock-step timing (max_delay = 1, no timeouts).
  sim::DelaySpec delay;
};

/// The AdversarySpec fields a kind reads, one flag per knob: crash,
/// Byzantine and delay knobs.
struct KnobSet {
  bool crashes = false, when = false, horizon = false, per_round = false,
       subset = false;
  bool byzantine = false, byzantine_rounds = false;
  bool max_delay = false, gst = false, timeout = false;
};

/// What the adversary does to the run: "crash" (processes stop; every
/// message sent is genuine), "byzantine" (faulty processes run honest code
/// but their wire traffic is rewritten per recipient — garbled, forged, or
/// equivocated, sim::CorruptionPlan — while the engine still authenticates
/// Envelope::from), or "delay" (nothing fails; the adversary assumes the
/// DeliveryScheduler role and schedules when message batches arrive —
/// sim/scheduler.h).
enum class FaultModel : std::uint8_t { kCrash, kByzantine, kDelay };

[[nodiscard]] const char* to_string(FaultModel model) noexcept;

/// How the single-view fast simulator replays a kind, if at all.
enum class FastSimRoute : std::uint8_t {
  /// No adversary: core::run_fast_sim_crash with a null adversary. Kept
  /// apart from kScheduleReplay for its auto-selection threshold
  /// (api::kAutoFastSimMinN).
  kCrashFree,
  /// A schedule-only crash strategy (sim/adversaries.h), replayed through
  /// sim::make_schedule_view by core::run_fast_sim_crash.
  kScheduleReplay,
  /// A strategy that reads the round's protocol traffic, replayed by
  /// core::run_fast_sim_targeted, which attaches that traffic to the view
  /// as a typed record (core::RoundTraffic).
  kTrafficOracle,
  /// No symbolic replay: Byzantine corruption rewrites per-recipient wire
  /// traffic, and delay scheduling needs the engine's virtual clock.
  kEngineOnly,
};

/// Builds the sim::Adversary of a crash or Byzantine kind from its spec.
/// `seed` is already derived from the fault model's seed domain; `shape` is
/// the run's tree (null for the non-tree algorithms).
using AdversaryFactory = std::unique_ptr<sim::Adversary> (*)(
    const AdversarySpec& spec, std::uint32_t n, std::uint64_t seed,
    const std::shared_ptr<const tree::TreeShape>& shape);

/// Builds the delivery scheduler of a delay kind; `seed` is already
/// derived from the delay seed domain.
using SchedulerFactory = std::unique_ptr<sim::DeliveryScheduler> (*)(
    const sim::DelaySpec& delay, std::uint64_t seed);

struct AdversaryDescriptor {
  AdversaryKind kind = AdversaryKind::kNone;
  /// Canonical name (harness::to_string(kind)).
  const char* name = "";
  /// Short CLI aliases, also accepted by name lookup.
  std::span<const char* const> aliases = {};
  const char* description = "";
  FaultModel fault_model = FaultModel::kCrash;
  FastSimRoute route = FastSimRoute::kEngineOnly;
  /// The knobs make() copies into the spec.
  KnobSet reads = {};
  /// True for the kinds that read the run's tree::TreeShape, so cannot
  /// attack a baseline: the targeted and Byzantine kinds. make_adversary
  /// rejects them without a shape.
  bool needs_tree = false;
  /// Crash and Byzantine kinds; null for kNone (no adversary at all).
  AdversaryFactory build_adversary = nullptr;
  /// Delay kinds only.
  SchedulerFactory build_scheduler = nullptr;

  /// "async-only" for the delay model (the kind *is* the
  /// DeliveryScheduler, so it only exists on the engine), else "sync".
  [[nodiscard]] constexpr std::string_view timing() const noexcept {
    return fault_model == FaultModel::kDelay ? "async-only" : "sync";
  }
  /// True when some fast sim replays the kind bit-for-bit.
  [[nodiscard]] constexpr bool fast_sim_capable() const noexcept {
    return route != FastSimRoute::kEngineOnly;
  }
  /// A spec of this kind: the knobs in `reads` copied over from `values`,
  /// every other field (and `values.kind`) at its AdversarySpec default.
  [[nodiscard]] AdversarySpec make(const AdversarySpec& values) const;
};

/// Every kind, in enum order: entry i describes AdversaryKind value i.
[[nodiscard]] std::span<const AdversaryDescriptor> adversary_table() noexcept;

/// The row of `kind` (throws ContractViolation for a value outside the
/// enum).
[[nodiscard]] const AdversaryDescriptor& adversary_descriptor(
    AdversaryKind kind);

[[nodiscard]] const char* to_string(AdversaryKind kind) noexcept;

/// True for the delay model's kinds, which schedule delivery ticks instead
/// of carrying a crash/corruption adversary.
[[nodiscard]] bool is_delay_kind(AdversaryKind kind) noexcept;

}  // namespace bil::harness
