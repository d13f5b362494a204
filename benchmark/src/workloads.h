// The benchmark's workloads: each one a fixed set of calls into one layer's
// public function, derived from the seed, that the driver repeats in whole
// passes until the run's time is up.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "layers.h"

namespace bilbench {

/// kFull is what runs are measured on. kToy (n <= 256, a handful of calls)
/// is the smoke test and the warm-up op inside set-up.
enum class Scale : std::uint8_t { kFull, kToy };

/// One timed call into a layer's public function.
struct Call {
  /// Duration of the public call alone (checks and fingerprints excluded).
  double seconds = 0.0;
  /// Validated ops the call completed: runs, service instances,
  /// evaluations or preset passes, depending on the workload.
  std::uint64_t ops = 0;
  /// FNV-1a over the call's outputs.
  std::uint64_t fingerprint = 0;
};

/// What traced calls write into.
struct Trace {
  LayerStats stats;
  SpanLog spans;
  std::uint64_t workload_span = SpanLog::kNone;
  std::uint64_t next_op = 1;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Derives the fixed work from `seed` at `scale` and builds what its
  /// calls need: specs, a tree shape for every size, executors.
  virtual void prepare(std::uint64_t seed, Scale scale) = 0;
  /// Calls in one pass of the fixed work.
  [[nodiscard]] virtual std::size_t pass_size() const = 0;
  /// Call `index` of the pass, untraced. Throws on any failed check.
  [[nodiscard]] virtual Call run(std::size_t index) = 0;
  /// The same call traced; its fingerprint must equal run()'s.
  [[nodiscard]] virtual Call run_traced(std::size_t index, Trace& trace) = 0;
  /// The fingerprint call `index` must reproduce, computed by an
  /// independent executor, where the workload has one.
  [[nodiscard]] virtual std::optional<std::uint64_t> reference(
      std::size_t /*index*/) {
    return std::nullopt;
  }
  /// Trace mode: serial calls that time the layers a pass runs in parallel
  /// or hides inside one call. Throws if their outputs disagree with the
  /// pass's.
  virtual void probe(Trace& /*trace*/) {}
};

/// Every workload name, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name. `width` is the thread
/// count every parallel call uses.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint32_t width);

/// The layer probes every traced run takes (tree, wire, util).
void probe_common(LayerStats& stats, Scale scale, std::uint32_t width);

/// Times, at toy size, every layer group the workload's own traced calls
/// left empty, so that every traced run reports every per-layer metric as a
/// measurement. Returns the names of the groups it filled.
std::vector<std::string> probe_unused_layers(LayerStats& stats,
                                             std::uint32_t width);

}  // namespace bilbench
