// The strong adaptive adversary interface (paper §3 and §5.3).
//
// The adversary controls which processes crash and, for a process that
// crashes while broadcasting, which subset of recipients still receives its
// final messages ("A ball may crash while broadcasting its candidate path;
// some balls may receive this broadcast, while others do not", paper §4).
//
// Adaptivity: `schedule` runs after all alive processes have produced their
// round-r messages, so the adversary observes every message — and therefore
// every coin flip that influenced them — before committing its crashes. It
// never sees future coins, matching the strong adaptive model the paper
// proves its bounds against.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/process.h"
#include "sim/types.h"
#include "util/contract.h"

namespace bil::core {
struct RoundTraffic;
}  // namespace bil::core

namespace bil::sim {

/// Read-only snapshot of the system state the adversary may inspect when
/// scheduling round-r crashes.
class RoundView {
 public:
  RoundView(RoundNumber round, std::uint32_t num_processes,
            std::span<const ProcessId> alive,
            std::span<const std::unique_ptr<ProcessBase>> processes,
            std::span<const Outbox> outboxes,
            std::uint32_t crash_budget_remaining,
            const core::RoundTraffic* traffic = nullptr) noexcept
      : round_(round),
        num_processes_(num_processes),
        alive_(alive),
        processes_(processes),
        outboxes_(outboxes),
        crash_budget_remaining_(crash_budget_remaining),
        traffic_(traffic) {}

  [[nodiscard]] RoundNumber round() const noexcept { return round_; }
  [[nodiscard]] std::uint32_t num_processes() const noexcept {
    return num_processes_;
  }

  /// Alive, non-halted process ids in increasing order.
  [[nodiscard]] std::span<const ProcessId> alive() const noexcept {
    return alive_;
  }

  [[nodiscard]] bool is_alive(ProcessId id) const noexcept;

  /// Full introspection into a process's state — the strong adversary sees
  /// everything, including internal state and past coin flips.
  [[nodiscard]] const ProcessBase& process(ProcessId id) const {
    BIL_REQUIRE(id < processes_.size(), "process id out of range");
    return *processes_[id];
  }

  /// The messages `id` wants to send this round (empty for dead processes).
  [[nodiscard]] std::span<const OutboundMessage> outgoing(ProcessId id) const {
    BIL_REQUIRE(id < outboxes_.size(), "process id out of range");
    return outboxes_[id].messages();
  }

  /// How many more processes the adversary may crash (t minus crashes so
  /// far).
  [[nodiscard]] std::uint32_t crash_budget_remaining() const noexcept {
    return crash_budget_remaining_;
  }

  /// This round's protocol traffic as typed per-id fields, from an executor
  /// that never encodes it (the crash fast sim); null when the traffic is
  /// only on the wire, in outgoing(). The record belongs to the protocol
  /// layer (core::RoundTraffic, core/targeted_adversary.h): the view only
  /// carries it, so a decorator that forwards schedule(view, plan) forwards
  /// the record too.
  [[nodiscard]] const core::RoundTraffic* traffic() const noexcept {
    return traffic_;
  }

 private:
  RoundNumber round_;
  std::uint32_t num_processes_;
  std::span<const ProcessId> alive_;
  std::span<const std::unique_ptr<ProcessBase>> processes_;
  std::span<const Outbox> outboxes_;
  std::uint32_t crash_budget_remaining_;
  const core::RoundTraffic* traffic_;
};

/// Schedule-only RoundView: the round/alive/budget snapshot without any
/// process or outbox introspection behind it. This is how the crash-capable
/// fast simulator drives *the same adversary objects* as the engine — the
/// oblivious strategies (no-failure, oblivious, burst, eager, sandwich)
/// consult only round(), alive(), is_alive() and crash_budget_remaining(),
/// so feeding them a schedule-only view reproduces their crash plans (and
/// their RNG streams, which make_delivery_subset consumes per alive id)
/// bit-for-bit without materializing processes or traffic. Protocol-aware
/// adversaries (core::TargetedCollisionAdversary) read the round's
/// announcements; outgoing() throws on a schedule-only view, so the fast
/// simulator attaches them as `traffic` instead (core/fast_sim_targeted.h).
[[nodiscard]] inline RoundView make_schedule_view(
    RoundNumber round, std::uint32_t num_processes,
    std::span<const ProcessId> alive, std::uint32_t crash_budget_remaining,
    const core::RoundTraffic* traffic = nullptr) noexcept {
  return RoundView(round, num_processes, alive, {}, {},
                   crash_budget_remaining, traffic);
}

/// The outbox rewrites a Byzantine adversary commits for one round.
///
/// Crash faults can only silence a process; a Byzantine fault makes its
/// *wire traffic* arbitrary. The model here keeps the process object itself
/// honest (it runs unmodified protocol code) and puts the fault on the wire:
/// the adversary replaces what a faulty sender's messages look like to each
/// recipient. This cleanly expresses every classic Byzantine behavior —
/// garbage payloads, semantic lies, and equivocation (different stories to
/// different recipients) — while the engine remains the sole authority on
/// Envelope::from, so a Byzantine node can never impersonate another sender.
///
/// Loopback exclusion: a rewrite never applies to the sender's own delivery
/// of its own messages — loopback does not traverse the wire, so the faulty
/// process always sees its own original traffic. (Consequence: the faulty
/// process's view stays self-consistent and it terminates like any honest
/// process; only its *outgoing* story is corrupted.)
///
/// Payload lifetime matches Outbox: buffers interned here are valid through
/// the delivery round and recycled when the engine clears the plan before
/// the next adversary phase.
class CorruptionPlan {
 public:
  struct Rewrite {
    ProcessId sender = kNoProcess;
    /// kNoProcess = applies to every recipient without a more specific
    /// per-recipient rewrite (except the sender itself; see loopback note).
    ProcessId recipient = kNoProcess;
    /// Replacement traffic, delivered as broadcasts in order. Empty = the
    /// recipient sees nothing from this sender (selective silence).
    std::vector<const wire::Buffer*> payloads;
  };

  /// Replaces what `recipient` receives from `sender` this round.
  /// `recipient` must not be `sender` (loopback does not traverse the wire).
  void rewrite(ProcessId sender, ProcessId recipient,
               std::vector<wire::Buffer> payloads) {
    rewrites_.push_back(Rewrite{sender, recipient, intern(std::move(payloads))});
  }

  /// Replaces what every recipient without a per-recipient rewrite receives
  /// from `sender` this round. The sender itself keeps its original
  /// loopback.
  void rewrite_all(ProcessId sender, std::vector<wire::Buffer> payloads) {
    rewrites_.push_back(
        Rewrite{sender, kNoProcess, intern(std::move(payloads))});
  }

  [[nodiscard]] std::span<const Rewrite> rewrites() const noexcept {
    return rewrites_;
  }
  [[nodiscard]] bool empty() const noexcept { return rewrites_.empty(); }

  /// Drops the round's rewrites and recycles their payload slots (engine
  /// internal, called before each adversary phase). Handles obtained from
  /// rewrites() are invalid afterwards.
  void clear() noexcept {
    rewrites_.clear();
    arena_.reset();
  }

 private:
  std::vector<const wire::Buffer*> intern(std::vector<wire::Buffer> payloads) {
    std::vector<const wire::Buffer*> handles;
    handles.reserve(payloads.size());
    for (wire::Buffer& payload : payloads) {
      handles.push_back(arena_.intern(std::move(payload)));
    }
    return handles;
  }

  std::vector<Rewrite> rewrites_;
  PayloadArena arena_;
};

/// The crashes the adversary commits for one round.
class CrashPlan {
 public:
  struct Crash {
    ProcessId victim = kNoProcess;
    /// Recipients that still receive the victim's round-r messages. Order
    /// and duplicates are irrelevant; the engine treats this as a set.
    std::vector<ProcessId> deliver_to;
  };

  /// Crashes `victim` this round; its round-r messages reach exactly
  /// `deliver_to`.
  void crash(ProcessId victim, std::vector<ProcessId> deliver_to) {
    crashes_.push_back(Crash{victim, std::move(deliver_to)});
  }

  /// Crashes `victim` before it manages to send anything.
  void crash_silent(ProcessId victim) { crash(victim, {}); }

  [[nodiscard]] std::span<const Crash> crashes() const noexcept {
    return crashes_;
  }
  [[nodiscard]] bool empty() const noexcept { return crashes_.empty(); }

 private:
  std::vector<Crash> crashes_;
};

/// Strategy interface. Implementations must be deterministic in
/// (construction arguments, observed views); randomized strategies carry a
/// seeded generator.
class Adversary {
 public:
  Adversary() = default;
  Adversary(const Adversary&) = delete;
  Adversary& operator=(const Adversary&) = delete;
  virtual ~Adversary() = default;

  /// Schedules this round's crashes. The engine validates the plan: victims
  /// must be alive and distinct, and the total number of crashes across the
  /// run must stay within the configured budget t.
  virtual void schedule(const RoundView& view, CrashPlan& plan) = 0;

  /// Byzantine hook: rewrites faulty senders' round-r traffic, per recipient
  /// or for all recipients (see CorruptionPlan). Runs serially after
  /// schedule(), on the same global snapshot. The engine validates the plan:
  /// rewritten senders must be alive (crash and corruption are disjoint
  /// faults for a given round) and the set of ever-corrupted senders must
  /// stay within EngineConfig::max_byzantine. The default is a no-op —
  /// crash-only adversaries corrupt nothing, so the entire Byzantine path is
  /// dead code for them and crash-only runs stay bit-identical.
  virtual void corrupt(const RoundView& view, CorruptionPlan& plan) {
    (void)view;
    (void)plan;
  }
};

}  // namespace bil::sim
