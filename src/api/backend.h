// Backend abstraction: one interface, two executors.
//
// EngineBackend drives the full synchronous message-passing engine through
// harness::run_renaming — exact semantics, every adversary, O(n²) messages
// per round, practical to n ≈ 2¹⁴ since the round-batched delivery fabric
// (see docs/perf.md; ~2¹¹ before it). FastSimBackend drives the single-view
// simulators, one per fast-sim route of the adversary table
// (harness/adversary_table.h) — bit-identical to the engine on their
// shared domain (asserted by tests/fast_sim_test.cpp,
// tests/fastsim_crash_test.cpp and tests/fastsim_targeted_test.cpp),
// O(n log n) per phase, practical past n = 2¹⁸. select_backend picks per
// cell so that large sweeps — including every registered crash adversary —
// transparently take the fast path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/experiment.h"
#include "sim/trace.h"

namespace bil::api {

/// One run's outcome, backend-independent.
struct RunRecord {
  std::uint64_t seed = 0;
  /// Rounds until the last correct process decided (the paper's metric).
  std::uint32_t rounds = 0;
  /// Rounds until the protocol fully wound down.
  std::uint32_t total_rounds = 0;
  std::uint32_t crashes = 0;
  /// Physical deliveries. Engine runs measure this; FastSim runs carry the
  /// simulator's own count of the deliveries it modelled, crash and
  /// targeted cells included — bit-identical to what the engine would have
  /// measured (tests/fastsim_crash_test.cpp, fastsim_targeted_test.cpp).
  std::uint64_t messages_delivered = 0;
  /// Payload traffic; meaningful only when bytes_measured.
  std::uint64_t bytes_delivered = 0;
  std::uint64_t max_payload_bytes = 0;
  /// False for FastSimBackend runs: payloads are never materialized, so
  /// byte counts are unknown (JSON writes null) rather than fake zeros.
  bool bytes_measured = true;
  /// Decided name per process id (0 for crashed processes).
  std::vector<std::uint64_t> names;
};

class Backend {
 public:
  virtual ~Backend() = default;
  /// Which kind this is (kEngine or kFastSim; never kAuto).
  [[nodiscard]] virtual BackendKind kind() const noexcept = 0;
  /// Executes one validated run. Throws ContractViolation if the cell is
  /// outside this backend's domain or the run violates the renaming
  /// properties.
  [[nodiscard]] virtual RunRecord run(const CellConfig& cell,
                                      std::uint64_t seed) const = 0;
};

/// Full message-passing engine via harness::run_renaming. Handles every
/// algorithm and adversary. `trace` (optional, not owned) receives the
/// engine event log of each run — single-run debugging only.
/// `engine_threads` is forwarded to sim::EngineConfig::num_threads (1 =
/// serial rounds, 0 = one thread per hardware thread; results are
/// bit-identical either way, and a non-null trace forces serial).
class EngineBackend final : public Backend {
 public:
  explicit EngineBackend(sim::TraceSink* trace = nullptr,
                         std::uint32_t engine_threads = 1)
      : trace_(trace), engine_threads_(engine_threads) {}
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kEngine;
  }
  [[nodiscard]] RunRecord run(const CellConfig& cell,
                              std::uint64_t seed) const override;

 private:
  sim::TraceSink* trace_;
  std::uint32_t engine_threads_;
};

/// Single-view fast simulator. Tree-based, globally terminating cells whose
/// adversary (if any) has a fast-sim route (the regimes where it is provably exact); fast_sim_compatible
/// tells you in advance. Every cell runs core::run_fast_sim_crash, which
/// replays the engine's adversary object bit-for-bit (none when crash-free);
/// traffic-oracle kinds go through core::run_fast_sim_targeted, which hands
/// that object each round's announcements as a typed record.
class FastSimBackend final : public Backend {
 public:
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kFastSim;
  }
  [[nodiscard]] RunRecord run(const CellConfig& cell,
                              std::uint64_t seed) const override;
};

/// True when FastSimBackend can execute the cell exactly: a tree-based
/// algorithm, an adversary with a fast-sim route
/// (adversary_info(kind).fast_sim_capable()), global termination.
[[nodiscard]] bool fast_sim_compatible(const CellConfig& cell);

/// Empty when fast_sim_compatible(cell); otherwise a one-line reason naming
/// the first incompatible component (algorithm, adversary, or termination
/// mode) — the message an explicit
/// `--backend fast-sim` request fails with.
[[nodiscard]] std::string fast_sim_incompatibility(const CellConfig& cell);

/// Crash-free cells at least this large take the fast path under
/// BackendKind::kAuto (below it the engine is already fast and also
/// measures traffic). Tuned against the round-batched delivery fabric: an
/// engine run at n = 2048 now costs what n = 1024 cost before it (~1 s),
/// so the engine keeps measuring real traffic up to twice the previous
/// size at the same wall-clock budget (measurements in docs/perf.md).
inline constexpr std::uint32_t kAutoFastSimMinN = 4096;

/// Crash-adversary cells at least this large take the fast path under
/// BackendKind::kAuto. Deliberately set higher than a strict read of the
/// crash-free ~1 s/run budget would allow (an adversarial engine run at
/// n = 4096 already costs ~10 s): crash cells are exactly where measured
/// bytes are irreplaceable — subset deliveries are the only thing that
/// bends real traffic away from the analytic broadcast pattern, and the
/// fast path reconstructs message counts exactly but never bytes — so the
/// engine keeps the wire through n = 4096 and hands over here, where its
/// runs near a minute (measurements in docs/perf.md).
inline constexpr std::uint32_t kAutoFastSimCrashMinN = 8192;

/// Targeted-adversary cells at least this large take the fast path under
/// BackendKind::kAuto. Same value as kAutoFastSimCrashMinN today — the
/// byte-measurement trade-off is identical (subset deliveries bend real
/// traffic; the fast path reconstructs counts, never bytes) and the
/// engine argument is *stronger*: a targeted engine run decodes the whole
/// round's traffic on top of the O(n²) fabric, so n = 8192 is already the
/// slowest cell class in the report presets. Kept as a separate knob so
/// the thresholds can move independently if the trade-offs diverge.
inline constexpr std::uint32_t kAutoFastSimTargetedMinN = 8192;

/// The smallest n at which kAuto sends a compatible cell on `route` to the
/// fast sim: kAutoFastSimMinN crash-free, kAutoFastSimCrashMinN on schedule
/// replay, kAutoFastSimTargetedMinN on the traffic oracle; never (the
/// type's maximum) for kEngineOnly.
[[nodiscard]] std::uint32_t auto_fast_sim_min_n(
    harness::FastSimRoute route) noexcept;

/// Resolves a cell's backend request to a concrete kind. kAuto picks
/// kFastSim for compatible cells with n >= auto_fast_sim_min_n of the
/// adversary's route; explicit kFastSim on an incompatible cell throws with
/// fast_sim_incompatibility's diagnostic.
[[nodiscard]] BackendKind select_backend(const CellConfig& cell);

/// Instantiates a backend of the given concrete kind (kAuto not allowed).
/// `engine_threads` configures EngineBackend's intra-round executor width
/// and is ignored by FastSimBackend.
[[nodiscard]] std::unique_ptr<Backend> make_backend(
    BackendKind kind, std::uint32_t engine_threads = 1);

/// Parses "auto" | "engine" | "fast-sim" (throws with a diagnostic listing
/// the accepted names otherwise).
[[nodiscard]] BackendKind parse_backend(std::string_view name);

}  // namespace bil::api
