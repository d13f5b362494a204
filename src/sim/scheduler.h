// The delivery scheduler: the adversary role generalized from "who crashes"
// to "when does each message arrive".
//
// A DeliveryScheduler assigns every (sender, round) message batch a
// delivery tick on a virtual clock. Engine::step() asks for each non-empty
// outbox's tick, in sender-id order, right after the sends; the round's
// inbox completes at the largest of them (one tick later for a silent
// round), and the clock jumps there. Delays are per batch and rounds stay
// globally serialized — a process's next send waits for the same
// completion — so that maximum is the only number a round needs. The
// scheduler *is* the timing adversary.
//
// Contract (checked by the engine):
//   * Progress: deliver_at(batch) > batch.send_tick — delivery takes at
//     least one tick, never zero or negative (no causality violations).
//   * Fairness / eventual delivery: every batch gets a finite delivery tick;
//     a scheduler cannot drop messages, only delay them. A scheduler that
//     starves delivery anyway (delays past EngineConfig::max_rounds, which
//     caps ticks) ends the run at the cap with completed = false — it
//     cannot loop the engine forever.
//   * Determinism: deliver_at must be a pure function of (construction
//     arguments, batches seen so far). All randomness comes from a generator
//     seeded at construction (kSeedDomainDelay), so delay schedules never
//     perturb process coin flips or crash schedules.
//
// The synchronous model is the special case deliver_at = send_tick + 1
// (SynchronousScheduler): every round completes one tick after it starts,
// so ticks and rounds coincide. It also carries the crash/corruption
// Adversary. The delay schedulers are crash-free by contract: delay
// adversaries attack timing, not processes (harness::make_scheduler rejects
// mixing a delay kind with crash or Byzantine budgets, and the engine
// rejects the budgets for any non-synchronous scheduler).
#pragma once

#include <cstdint>
#include <memory>

#include "sim/adversary.h"
#include "sim/types.h"
#include "util/rng.h"

namespace bil::sim {

/// Virtual clock value in ticks. Tick 0 is the instant every process emits
/// its round-0 messages; a synchronous round occupies exactly one tick
/// (every batch sent at tick T is delivered at T + 1).
using VirtualTime = std::uint64_t;

/// Numeric knobs for the delay schedulers, carried by
/// harness::AdversarySpec::delay. The defaults describe lock-step timing (max_delay = 1, no timeouts), so a
/// default-constructed DelaySpec reproduces the synchronous schedule tick
/// for tick.
struct DelaySpec {
  /// Bounded-delay bound d: each batch's delay is drawn uniformly from
  /// [1, d] ticks. d = 1 is special-cased to consume no randomness at all,
  /// so a bounded-delay run at d = 1 is bit-identical to the synchronous
  /// scheduler (the benchmark's delay cell and tests/async_test.cpp rely
  /// on this). For the GST scheduler this is the *pre-GST* delay bound.
  std::uint32_t max_delay = 1;
  /// Global stabilization tick for the GST scheduler: batches sent at
  /// tick >= gst are delivered in exactly one tick (synchrony holds from
  /// GST on); earlier batches get the bounded [1, max_delay] treatment.
  VirtualTime gst = 0;
  /// Timeout in ticks (0 = disabled): when a round's inbox is still
  /// incomplete this many ticks after its sends, the engine fires
  /// ProcessBase::on_timeout once for the waiting round — the hook
  /// timeout-based early termination (core::BallsIntoLeavesProcess) hangs
  /// off. A timeout at or beyond the tick cap never fires, up to the
  /// type's maximum.
  VirtualTime timeout = 0;

  bool operator==(const DelaySpec&) const = default;
};

/// One (sender, round) batch presented to the scheduler at send time.
struct SendBatch {
  ProcessId sender = kNoProcess;
  RoundNumber round = 0;
  VirtualTime send_tick = 0;
  std::uint32_t num_messages = 0;
};

/// The role the adversary assumes over delivery timing. See the file
/// comment for the progress/fairness/determinism contract.
class DeliveryScheduler {
 public:
  DeliveryScheduler() = default;
  DeliveryScheduler(const DeliveryScheduler&) = delete;
  DeliveryScheduler& operator=(const DeliveryScheduler&) = delete;
  virtual ~DeliveryScheduler();

  /// True = lock-step timing, which may carry a crash/corruption
  /// adversary(). The engine rejects crash and Byzantine budgets for any
  /// other scheduler; it runs the same round loop either way.
  [[nodiscard]] virtual bool synchronous() const noexcept { return false; }

  /// The crash/corruption adversary this scheduler carries; null for the
  /// delay schedulers (crash-free by contract). Borrowed, owned by the
  /// scheduler.
  [[nodiscard]] virtual Adversary* adversary() noexcept { return nullptr; }

  /// Assigns the delivery tick for `batch`. Must satisfy the progress
  /// contract (result > batch.send_tick); the engine validates it.
  [[nodiscard]] virtual VirtualTime deliver_at(const SendBatch& batch) = 0;

  /// Tick budget a process waits before ProcessBase::on_timeout fires
  /// (0 = timeouts disabled).
  [[nodiscard]] virtual VirtualTime timeout_ticks() const noexcept {
    return 0;
  }
};

/// Lock-step timing: every batch is delivered one tick after it is sent.
/// Carries the crash/corruption Adversary (may be null = failure-free).
class SynchronousScheduler final : public DeliveryScheduler {
 public:
  explicit SynchronousScheduler(std::unique_ptr<Adversary> adversary)
      : adversary_(std::move(adversary)) {}

  [[nodiscard]] bool synchronous() const noexcept override { return true; }
  [[nodiscard]] Adversary* adversary() noexcept override {
    return adversary_.get();
  }
  [[nodiscard]] VirtualTime deliver_at(const SendBatch& batch) override {
    return batch.send_tick + 1;
  }

 private:
  std::unique_ptr<Adversary> adversary_;
};

/// Bounded-delay asynchrony: each batch's delay is an independent uniform
/// draw from [1, max_delay] ticks. max_delay = 1 consumes no randomness and
/// reproduces the synchronous schedule exactly.
class BoundedDelayScheduler final : public DeliveryScheduler {
 public:
  /// `seed` should come from derive_seed(run_seed, kSeedDomainDelay, 0) so
  /// the delay stream is independent of every process / adversary stream.
  BoundedDelayScheduler(const DelaySpec& spec, std::uint64_t seed);

  [[nodiscard]] VirtualTime deliver_at(const SendBatch& batch) override;
  [[nodiscard]] VirtualTime timeout_ticks() const noexcept override {
    return spec_.timeout;
  }

 private:
  DelaySpec spec_;
  Rng rng_;
};

/// Partial synchrony with a global stabilization time (GST): batches sent
/// before tick `gst` are delayed by a uniform draw from [1, max_delay];
/// batches sent at or after `gst` are delivered in exactly one tick. From
/// GST on the run is indistinguishable from a synchronous one, which is why
/// rounds-to-decide measured from GST obeys the synchronous O(log log n)
/// contract (search/contract.h) — the `async-delay` preset claims it.
class GstScheduler final : public DeliveryScheduler {
 public:
  GstScheduler(const DelaySpec& spec, std::uint64_t seed);

  [[nodiscard]] VirtualTime deliver_at(const SendBatch& batch) override;
  [[nodiscard]] VirtualTime timeout_ticks() const noexcept override {
    return spec_.timeout;
  }

 private:
  DelaySpec spec_;
  Rng rng_;
};

}  // namespace bil::sim
