// Synthesized-traffic RoundView builder: the bridge that lets protocol-aware
// adversaries run against a simulator that never materializes real outboxes.
//
// sim::make_schedule_view (adversary.h) drives schedule-only adversaries by
// handing them a RoundView with empty process/outbox spans — enough for
// strategies that consult only round(), alive() and the crash budget. The
// targeted adversaries (core/targeted_adversary.h) additionally decode the
// round's traffic via outgoing(), so a symbolic executor must *synthesize*
// that traffic: re-encode, per alive process, exactly the message the real
// engine's process would have broadcast this round, from the simulator's
// symbolic state.
//
// SynthesizedTraffic owns one Outbox per process and exposes a RoundView
// over them. The encoding side stays with the caller (core layer — the
// protocol codecs live there; this class is codec-agnostic): fill the round
// with begin_round() + broadcast_slot(id), encoding each payload straight
// into the returned slot, then hand view() to Adversary::schedule. As long
// as the synthesized payloads are byte-level decodable to the same protocol
// messages the engine's processes would have sent — in the same
// alive-ascending outbox order — an adversary driven through this view
// commits the bit-identical crash plan, including its RNG draws
// (tests/fastsim_targeted_test.cpp asserts this end to end).
//
// Memory and allocation: an outbox that has never sent owns nothing (see
// sim::PayloadArena), so the n outboxes cost ~56 B each up front and a few
// small allocations once used. Every later round re-encodes into the slot
// the same sender used the round before, keeping its capacity, so a
// steady-state round synthesizes n messages without touching the heap.
//
// process() remains unbacked (empty span, throws on access) exactly like the
// schedule-only view: an adversary that introspects process internals has no
// symbolic replay — see the capability notes in sim/adversaries.h.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/adversary.h"
#include "sim/types.h"
#include "wire/wire.h"

namespace bil::sim {

class SynthesizedTraffic {
 public:
  explicit SynthesizedTraffic(std::uint32_t num_processes);

  /// Drops the previous round's messages and recycles their payload slots
  /// (only outboxes actually used since the last call are touched, so a
  /// round with few senders costs O(senders), not O(n)).
  void begin_round();

  /// Records a broadcast `sender` emits this round and returns its payload
  /// slot — empty, with the capacity of the slot's previous payload — for
  /// the caller to encode into. Handles stay valid until the next
  /// begin_round(), mirroring the engine's round-scoped outbox lifetime
  /// (sim::PayloadArena).
  [[nodiscard]] wire::Buffer& broadcast_slot(ProcessId sender);

  /// A RoundView over the synthesized outboxes, presenting the identical
  /// observation point the engine offers its adversary: after all round-r
  /// sends, before any delivery. `alive` must outlive the returned view.
  [[nodiscard]] RoundView view(RoundNumber round,
                               std::span<const ProcessId> alive,
                               std::uint32_t crash_budget_remaining) const {
    return RoundView(round, static_cast<std::uint32_t>(outboxes_.size()),
                     alive, /*processes=*/{}, outboxes_,
                     crash_budget_remaining);
  }

 private:
  std::vector<Outbox> outboxes_;
  /// Senders with traffic recorded since the last begin_round().
  std::vector<ProcessId> used_;
};

}  // namespace bil::sim
