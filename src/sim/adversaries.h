// Concrete crash-scheduling strategies.
//
// Every bound in the paper is "against a strong adaptive adversary", so the
// benchmark harness must attack the algorithms with executable adversaries.
// Each strategy below documents which proof scenario it probes. The
// BiL-aware TargetedCollisionAdversary (which reads the round's candidate
// paths and position announcements) lives in src/core/targeted_adversary.h
// because it needs the protocol's message codecs.
//
// Schedule-only contract: every *crash* strategy in this file is oblivious
// in its inputs — schedule() reads only the RoundView's round number, alive
// list and remaining budget, never process state or outbox contents. That
// makes them drivable through sim::make_schedule_view (adversary.h), which
// is how the crash-capable fast simulator replays the exact engine crash
// schedule (victims, rounds, delivery subsets, RNG stream) without an
// engine. Keep it that way: a strategy that starts reading outboxes leaves
// the schedule-only set and must instead read a typed record of the round's
// traffic that the fast simulator attaches to the view (RoundView::traffic,
// core/fast_sim_targeted.h), as the targeted adversaries do — an
// adversary that introspects process() internals has no symbolic replay at
// all and must take the FastSimRoute::kEngineOnly route in its row of the
// adversary table (src/harness/adversary_table.h).
//
// The Byzantine family is the deliberate exception: corruption rewrites
// materialized wire traffic per recipient (CorruptionPlan), so every
// Byzantine strategy reads outboxes by construction and is engine-only
// (route kEngineOnly in the adversary table). The wire-level
// ByzantineCorruptionAdversary lives below; the protocol-aware liar and
// equivocator (which forge structurally valid BiL messages) live in
// src/core/byzantine_adversary.h next to the message codecs, mirroring the
// targeted-adversary split.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/adversary.h"
#include "util/rng.h"

namespace bil::sim {

/// Failure-free executions (paper §5.1–5.2 analyze these first).
class NoFailureAdversary final : public Adversary {
 public:
  void schedule(const RoundView& view, CrashPlan& plan) override;
};

/// How a crashing process's final-round messages are delivered.
enum class SubsetPolicy : std::uint8_t {
  /// Nobody receives them (crash before sending).
  kSilent,
  /// Every second alive process (in id order) receives them — the paper §6
  /// pattern that makes "all other balls collide in pairs".
  kAlternating,
  /// Each alive process receives them independently with probability 1/2.
  kRandomHalf,
  /// Everyone receives them (crash just after a complete broadcast; the
  /// victim falls silent only from the next round on).
  kAll,
};

/// Oblivious adversary: commits all its choices (victims, crash rounds,
/// delivery subsets) up front from a seed, before the execution starts, and
/// never looks at the run. This is the weak adversary model; the paper's
/// bounds hold against the stronger adaptive one, so BiL must beat this too.
class ObliviousCrashAdversary final : public Adversary {
 public:
  struct Options {
    /// Number of processes to crash (clamped to the engine budget at run
    /// time).
    std::uint32_t crashes = 0;
    /// Crash rounds are drawn uniformly from [0, horizon_rounds).
    RoundNumber horizon_rounds = 8;
    SubsetPolicy subset_policy = SubsetPolicy::kRandomHalf;
  };

  ObliviousCrashAdversary(std::uint32_t num_processes, Options options,
                          std::uint64_t seed);

  void schedule(const RoundView& view, CrashPlan& plan) override;

 private:
  struct PlannedCrash {
    ProcessId victim;
    RoundNumber round;
  };
  std::vector<PlannedCrash> planned_;
  SubsetPolicy subset_policy_;
  Rng rng_;
};

/// Crashes the `count` lowest alive ids simultaneously in one round. Probes
/// the early-termination analysis (Theorem 4): f crashes in the very first
/// phase force the deterministic phase-1 collapse to leave collisions, which
/// the randomized phases must then clear in O(log log f) rounds.
class BurstCrashAdversary final : public Adversary {
 public:
  struct Options {
    std::uint32_t count = 0;
    RoundNumber when = 1;
    SubsetPolicy subset_policy = SubsetPolicy::kAlternating;
  };

  BurstCrashAdversary(Options options, std::uint64_t seed);

  void schedule(const RoundView& view, CrashPlan& plan) override;

 private:
  Options options_;
  Rng rng_;
};

/// The paper §6 worst case, applied adaptively every firing round while
/// budget lasts: crash the lowest-id alive process mid-broadcast, delivering
/// to every second alive process so that surviving views disagree about the
/// victim and ranks shift by one in half the views. Against rank-indexed
/// deterministic algorithms this is the "sandwich" order-equivalence attack
/// behind the Ω(log n) lower bound of Chaudhuri–Herlihy–Tuttle.
class SandwichAdversary final : public Adversary {
 public:
  struct Options {
    /// Fire on rounds r with r >= offset and (r - offset) % period == 0.
    /// Algorithms in this repository run an init round (round 0) followed by
    /// two-round phases, so offset 1, period 2 hits every path-exchange
    /// round.
    RoundNumber offset = 1;
    RoundNumber period = 2;
    /// Victims per firing round.
    std::uint32_t per_round = 1;
  };

  explicit SandwichAdversary(Options options) : options_(options) {}

  void schedule(const RoundView& view, CrashPlan& plan) override;

 private:
  Options options_;
};

/// Spends the whole crash budget as early as possible: from `start_round`,
/// crashes up to `per_round` victims per round with random-half delivery.
/// Probes §5.3's claim that crashes cannot slow BiL down.
class EagerCrashAdversary final : public Adversary {
 public:
  struct Options {
    RoundNumber start_round = 1;
    std::uint32_t per_round = 1;
    SubsetPolicy subset_policy = SubsetPolicy::kRandomHalf;
  };

  EagerCrashAdversary(Options options, std::uint64_t seed);

  void schedule(const RoundView& view, CrashPlan& plan) override;

 private:
  Options options_;
  Rng rng_;
};

/// Wire-level Byzantine corruption: garbles the traffic of the `byzantine`
/// lowest process ids (the faulty set is fixed at construction, matching the
/// paper convention that f is a property of the execution, not a budget to
/// spend adaptively). Each firing round, every outgoing payload of a faulty
/// sender is copied and mutated, the garble drawn per payload: 1–8 random
/// bit flips, truncation (possibly to zero bytes), or 1–8 trailing junk
/// bytes. The rewrite is installed for all recipients via
/// CorruptionPlan::rewrite_all, so recipients exercise their WireError
/// handling while the sender itself still sees its own clean loopback.
/// Crashes nobody. Protocol-agnostic: mutates bytes, never decodes them.
class ByzantineCorruptionAdversary final : public Adversary {
 public:
  struct Options {
    /// f — number of faulty senders (ids 0..f-1).
    std::uint32_t byzantine = 0;
    RoundNumber start_round = 0;
    /// Corrupting rounds: [start_round, start_round + rounds); 0 = every
    /// round from start_round on (safe: garbled senders just look silent
    /// to recipients that validate, so termination is never blocked).
    RoundNumber rounds = 0;
  };

  ByzantineCorruptionAdversary(Options options, std::uint64_t seed);

  void schedule(const RoundView& view, CrashPlan& plan) override;
  void corrupt(const RoundView& view, CorruptionPlan& plan) override;

 private:
  Options options_;
  Rng rng_;
};

/// Builds the delivery subset for `victim` under `policy`. Exposed for reuse
/// by protocol-aware adversaries (e.g. core/targeted_adversary).
[[nodiscard]] std::vector<ProcessId> make_delivery_subset(
    const RoundView& view, ProcessId victim, SubsetPolicy policy, Rng& rng);

}  // namespace bil::sim
