// Declarative registry of paper-claim presets.
//
// A preset names one reproducible figure of the paper: a grid of series
// (algorithm × size-or-failure axis, executed through the bil::api sweep
// layer) plus the claims the measurements must satisfy — each claim a
// checked predicate over fitted scaling curves (src/stats/fit.h) or point
// metrics, with explicit tolerance bands. `bil_report` (tools/) runs
// presets and renders docs/results.md with a PASS/FAIL verdict per claim,
// so "sub-logarithmic" is a number CI can diff, not a vibe.
//
// Registering a new scenario is ~10 declarative lines in presets.cpp: add a
// PresetSpec with the series grid and the claim bands; the runner,
// renderers, JSON output, `--preset` plumbing and the CI check pick it up
// from the registry automatically.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "api/experiment.h"
#include "harness/runner.h"

namespace bil::report {

/// One measured curve: an algorithm swept over an axis of sizes (n) or
/// failure counts (f, at fixed n), or the two-choice load-balancing
/// allocator (the paper's §1 contrast, which is not a renaming algorithm
/// and therefore runs outside the renaming sweep API).
struct SeriesSpec {
  /// Unique within the preset; claims reference series by this label.
  std::string label;
  harness::Algorithm algorithm = harness::Algorithm::kBallsIntoLeaves;
  /// The x-axis sizes. When `f_values` is non-empty this must hold exactly
  /// one entry — the fixed n — and the axis is f instead.
  std::vector<std::uint32_t> n_values = {64};
  /// Failure-count axis (init-round crash sweeps at fixed n).
  std::vector<std::uint32_t> f_values;
  /// Runs per point, on seeds 1, 2, ... (shared across the preset's
  /// points and series).
  std::uint32_t seeds = 10;
  api::BackendKind backend = api::BackendKind::kAuto;
  core::TerminationMode termination = core::TerminationMode::kGlobal;
  /// Builds the adversary for a grid point (axis values n, f); null means
  /// failure-free. A function rather than a fixed spec because crash
  /// budgets scale with the axis (sandwich wants t = n-1, f-sweeps want
  /// exactly f init-round crashes).
  std::function<harness::AdversarySpec(std::uint32_t n, std::uint32_t f)>
      adversary;
  /// Gossip's resilience parameter t as a function of n; null means
  /// wait-free (t = n-1, the paper's setting — linear rounds). The
  /// rounds-vs-n preset instead gives gossip the unfairly generous
  /// t = ceil(log2 n), turning it into the Θ(log n) reference curve the
  /// sub-logarithmic claim is checked against.
  std::function<std::uint32_t(std::uint32_t n)> gossip_t;
  /// True: run baselines::run_two_choice instead of a renaming sweep
  /// (`algorithm` is ignored; the allocator always runs three rounds).
  bool two_choice = false;
  /// Long-lived service mode: when churn.enabled(), each point runs
  /// RenamingService horizons instead of one-shot instances (n is the
  /// steady-state population target) and the point carries steady-state
  /// churn summaries. The rounds metric becomes mean rounds-to-name.
  service::ChurnSpec churn;
};

/// Which measured quantity a claim constrains.
enum class Metric : std::uint8_t {
  /// Mean rounds until the last correct process decided.
  kRoundsMean,
  /// Worst observed rounds across the point's runs.
  kRoundsMax,
  /// Mean payload bytes per delivered message (bytes.mean / messages.mean).
  kBytesPerMessage,
  /// messages / (n² · total_rounds): 1.0 exactly for a crash-free
  /// all-broadcast engine run.
  kBroadcastRatio,
  /// Mean crashes the adversary committed per run. Equals-bound claims on
  /// this metric pin a crash schedule exactly (e.g. a burst's full budget);
  /// fast-backend crash cells must reproduce the engine's count.
  kCrashesMean,
  /// Two-choice series only: worst max-load over the point's runs.
  kMaxLoadMax,
  /// Churn series only — steady-state service metrics (mean over seeds).
  /// Names assigned per service round divided by the spec's mean arrival
  /// rate (1.0 = keeps up).
  kChurnThroughputRatio,
  /// Rounds-to-name median within a horizon.
  kChurnLatencyP50,
  /// Rounds-to-name 99th percentile within a horizon.
  kChurnLatencyP99,
  /// Mean live-name density (live clients / namespace size).
  kChurnDensityMean,
};

[[nodiscard]] const char* to_string(Metric metric) noexcept;

enum class ClaimKind : std::uint8_t {
  /// The series' metric-vs-n curve is best explained by the iterated-log
  /// model: R²(log log) >= min_r2 AND R²(log log) > R²(log) (strict win).
  kBestModelLogLog,
  /// The log₂-model slope lies in [lo, hi] with R² >= min_r2.
  kLogSlopeBand,
  /// The power-law (log-log regression) exponent lies in [lo, hi] with
  /// log-space R² >= min_r2.
  kPowerExponentBand,
  /// The series' log₂-fit slope is < factor × the reference series'
  /// log₂-fit slope (strictly slower growth against the same model).
  kSlowerThan,
  /// metric(series) <= factor × metric(reference) at every shared x.
  kRatioBound,
  /// metric <= bound at every point of the series.
  kAbsoluteBound,
  /// |metric − bound| <= tol at every point of the series.
  kEqualsBound,
  /// Two-choice series: every run at every point leaves at least one
  /// colliding ball (the allocation is never a renaming).
  kAlwaysColliding,
};

[[nodiscard]] const char* to_string(ClaimKind kind) noexcept;

struct ClaimSpec {
  /// Stable id ("bil-sublog-vs-gossip"); CI diffs verdicts by this name.
  std::string name;
  /// Human sentence with the paper reference the claim reproduces.
  std::string statement;
  ClaimKind kind = ClaimKind::kAbsoluteBound;
  /// Label of the primary series within the preset.
  std::string series;
  /// Secondary series (kSlowerThan, kRatioBound).
  std::string reference;
  Metric metric = Metric::kRoundsMean;
  /// Minimum R² for the fit-based kinds.
  double min_r2 = 0.0;
  /// Slope / exponent band for the band kinds.
  double lo = 0.0;
  double hi = 0.0;
  /// Multiplier for kSlowerThan / kRatioBound.
  double factor = 0.0;
  /// Threshold for kAbsoluteBound / kEqualsBound.
  double bound = 0.0;
  /// Tolerance for kEqualsBound.
  double tol = 0.0;
  /// Points with x below this are excluded from the claim (0 = use all).
  /// Asymptotic claims use it to skip tiny grids where additive constants
  /// dominate the shape (e.g. gossip payloads at n = 16).
  std::uint32_t min_x = 0;
};

struct PresetSpec {
  /// CLI name (`bil_report --preset rounds-vs-n`).
  std::string name;
  std::string title;
  /// Markdown paragraph rendered above the preset's tables.
  std::string description;
  std::vector<SeriesSpec> series;
  std::vector<ClaimSpec> claims;
};

/// All registered presets, in registration order. "ci" (the reduced
/// deterministic grid the CI job runs) is registered but excluded from
/// `--preset all`.
[[nodiscard]] const std::vector<PresetSpec>& preset_registry();

/// Looks up a preset by name; throws ContractViolation listing every
/// registered name on failure.
[[nodiscard]] const PresetSpec& find_preset(std::string_view name);

/// "rounds-vs-n|crash-ablation|..." catalog for --help text.
[[nodiscard]] std::string preset_catalog();

}  // namespace bil::report
