// Symbolic execution of the protocol-aware targeted adversaries.
//
// The targeted collision adversaries (core/targeted_adversary.h) read the
// round's candidate paths and position announcements before choosing
// victims, so the schedule-only replay of core/fast_sim_crash cannot drive
// them alone. run_fast_sim_targeted closes that gap: each round it attaches
// to the adversary's RoundView a typed record (core::RoundTraffic) of what
// every alive ball broadcasts, taken from the crash fast sim's single
// canonical view and its per-round target array. These are exactly the
// values the engine's processes stamp into their messages at the
// adversary's observation point:
//
//   round 0          Init  ⟨label⟩           nothing is read (see below)
//   odd (path)       Path  ⟨label, start,    label  = id (the fast-sim
//                           target⟩          domain requires default
//                                            labels), start = canonical
//                                            current(id), target = this
//                                            round's choice, computed from
//                                            the same coins
//   even (position)  Pos   ⟨label, node⟩     node   = canonical current(id)
//
// Every alive ball's *own-view* position equals the canonical view's at
// that instant (a ball always receives its own broadcast, so it holds its
// own delivery-class outcome — which is what round 2 made canonical), and
// the adversary reads the record in alive order, the order in which it
// decodes the engine's outboxes. Hence TargetedCollisionAdversary sees
// identical announcements, draws identical subset coins, and commits the
// identical crash plan; the resulting subset-delivery divergence is then
// absorbed by the existing delivery-class + ghost machinery. The record is
// filled only when the adversary can read it: not in round 0, and not once
// the crash budget is spent.
//
// The record rides inside the RoundView, so adversary decorators that
// forward schedule(view, plan) — the genome overlay of src/search/, a
// timing wrapper — pass it on untouched.
// tests/fastsim_targeted_test.cpp asserts bit-identity with the engine
// (rounds, total rounds, crashes, names, deliveries) across algorithms,
// targeted modes and subset policies.
#pragma once

#include "core/fast_sim_crash.h"

namespace bil::core {

/// Runs the crash fast sim with each round's typed traffic attached to the
/// adversary's view, so `adversary` may be protocol-aware (the targeted
/// kinds). Same contract as run_fast_sim_crash otherwise: the adversary must
/// be freshly constructed for this run's seed (harness::make_adversary).
/// Defined in core/fast_sim_crash.cpp, next to the simulator it drives.
[[nodiscard]] CrashFastSimResult run_fast_sim_targeted(
    const CrashFastSimOptions& options, sim::Adversary* adversary);

}  // namespace bil::core
