// The process interface run by the synchronous engine.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "sim/types.h"
#include "util/contract.h"

namespace bil::sim {

/// A deterministic state machine executed in lock-step rounds.
///
/// Per round `r`, the engine calls `on_send(r, outbox)` on every alive
/// process (in process-id order), lets the adversary schedule crashes, then
/// calls `on_receive(r, inbox)` with the messages that survived delivery.
///
/// A process reports progress through the protected `decide`/`halt` calls:
///   * `decide(name)` records the renaming output (once);
///   * `halt()` stops participation — the engine no longer invokes the
///     process, and other processes observe only its silence.
///
/// Implementations must be deterministic functions of (construction
/// arguments, received messages): all randomness must come from a generator
/// seeded at construction, never from global state.
///
/// Concurrency contract: with EngineConfig::num_threads > 1 the engine
/// invokes different processes' on_send / on_receive concurrently within a
/// phase (never two calls on the same process). An implementation must
/// therefore confine its mutable state to itself; anything shared between
/// processes (e.g. the tree::TreeShape every ball derives from n) must be
/// immutable after construction. Determinism plus confinement is exactly
/// what makes intra-round parallelism an identity-preserving optimization.
class ProcessBase {
 public:
  ProcessBase() = default;
  ProcessBase(const ProcessBase&) = delete;
  ProcessBase& operator=(const ProcessBase&) = delete;
  virtual ~ProcessBase() = default;

  /// Emits this round's messages. Called only while the process is alive and
  /// not halted.
  virtual void on_send(RoundNumber round, Outbox& out) = 0;

  /// Consumes this round's delivered messages. `inbox` is sorted by sender
  /// id and contains at most one batch per sender.
  virtual void on_receive(RoundNumber round,
                          std::span<const Envelope> inbox) = 0;

  /// Delay-scheduler hook (see sim/scheduler.h): fired once per round, on
  /// every alive process in id order, when round `round`'s inbox is still
  /// incomplete DelaySpec::timeout ticks after its sends. Engine::step()
  /// fires it between the sends and the delivery, also in a round that
  /// then starves past the tick cap. Default: do nothing — lock-step rounds
  /// complete in one tick, so lock-step behaviour is unchanged. An override
  /// may decide() early (timeout-based early termination) but must keep
  /// participating: the late messages are still in flight and will be
  /// delivered.
  virtual void on_timeout(RoundNumber /*round*/) {}

  [[nodiscard]] bool has_decided() const noexcept {
    return decision_.has_value();
  }

  /// The decided name; requires has_decided().
  [[nodiscard]] std::uint64_t decision() const {
    BIL_REQUIRE(decision_.has_value(), "process has not decided");
    return *decision_;
  }

  [[nodiscard]] bool halted() const noexcept { return halted_; }

 protected:
  /// Records the process's renaming output. May be called at most once.
  void decide(std::uint64_t name) {
    BIL_REQUIRE(!decision_.has_value(), "decide() called twice");
    decision_ = name;
  }

  /// Stops participating in the protocol. Idempotent.
  void halt() noexcept { halted_ = true; }

 private:
  std::optional<std::uint64_t> decision_;
  bool halted_ = false;
};

}  // namespace bil::sim
