// Seed-domain constants shared by the engine harness and the fast simulator.
//
// Both execution paths must derive *identical* per-ball random streams from a
// run seed so that a fault-free fast-simulator run and a fault-free engine
// run with the same seed produce bit-identical placements (this equivalence
// is asserted by tests/fast_sim_test.cpp).
#pragma once

#include <cstdint>

namespace bil::core {

/// derive_seed(run_seed, kSeedDomainProcess, i) seeds ball i's coin flips.
inline constexpr std::uint64_t kSeedDomainProcess = 1;
/// derive_seed(run_seed, kSeedDomainAdversary, k) seeds adversary stream k.
inline constexpr std::uint64_t kSeedDomainAdversary = 2;
/// derive_seed(run_seed, kSeedDomainHarness, k) seeds harness-level choices
/// (e.g. which processes an oblivious adversary victimizes).
inline constexpr std::uint64_t kSeedDomainHarness = 3;
// Domain 4 is unused. The values are pinned (every checked result derives
// its seeds from them), so the domains below keep their numbers.
/// derive_seed(service_seed, kSeedDomainChurnArrivals, round) seeds the
/// arrival-count draw for one churn round; random-access addressing keeps
/// service::ChurnStream order-independent.
inline constexpr std::uint64_t kSeedDomainChurnArrivals = 5;
/// derive_seed(service_seed, kSeedDomainChurnLease, client_id) seeds one
/// client's lease-length draw in the renaming service.
inline constexpr std::uint64_t kSeedDomainChurnLease = 6;
/// derive_seed(service_seed, kSeedDomainServiceInstance, instance_index)
/// seeds the renaming instance launched for one joiner batch.
inline constexpr std::uint64_t kSeedDomainServiceInstance = 7;
/// derive_seed(run_seed, kSeedDomainByzantine, k) seeds Byzantine corruption
/// stream k — a separate domain from kSeedDomainAdversary so adding wire
/// corruption to a run never perturbs the crash schedule it rides on.
inline constexpr std::uint64_t kSeedDomainByzantine = 8;
/// derive_seed(search_seed, kSeedDomainSearch, k) seeds the adversary-search
/// optimizers (src/search/): mutation/restart stream k. A separate domain
/// from kSeedDomainAdversary so the search's own coin flips never collide
/// with the RNG stream a candidate schedule replays with.
inline constexpr std::uint64_t kSeedDomainSearch = 9;
/// derive_seed(run_seed, kSeedDomainSplitter, id) is reserved for the
/// splitter-network baseline's per-process stream (the current
/// deterministic splitter consumes no coins, but the domain is pinned so a
/// future randomized variant cannot collide with kSeedDomainProcess).
inline constexpr std::uint64_t kSeedDomainSplitter = 10;
/// derive_seed(run_seed, kSeedDomainDelay, k) seeds delivery-scheduler
/// stream k (sim/scheduler.h: bounded-delay / GST delay draws) — a separate
/// domain from kSeedDomainAdversary so attaching a delay schedule to a run
/// can never perturb a crash schedule or any process's coin flips.
inline constexpr std::uint64_t kSeedDomainDelay = 11;

}  // namespace bil::core
