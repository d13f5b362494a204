// RenamingService: the long-lived driver that turns one-shot renaming
// instances into a name service under churn.
//
// The split this subsystem introduces: an *instance* is one execution of a
// renaming algorithm — k participants in, a permutation of 1..k out, the
// unit everything under src/core..src/api measures. The *service* is the
// process that lives across instances: clients arrive continuously (churn.h),
// concurrent joiners are batched into one instance, the instance's ranks are
// mapped onto leased names from a recycled pool (lease_table.h), and clients
// eventually depart, freeing their names for later joiners.
//
// Driver loop, per service round r (instances run one at a time; arrivals
// during an instance's flight queue in the backlog and form the next batch):
//   1. commit — if the in-flight instance completes at r, map its rank
//      permutation onto the names reserved at launch (rank i -> i-th
//      smallest reserved name) and record each joiner's rounds-to-name;
//   2. departures — clients whose lease expires at r release their names;
//      then the namespace shrinks by half if occupancy fell below the
//      shrink threshold;
//   3. arrivals — ChurnStream::arrivals_at(r) new clients join the backlog;
//   4. launch — if no instance is in flight and the backlog is non-empty,
//      grow the namespace until the batch fits under the grow threshold,
//      reserve batch-many names, and start an instance over the batch.
//
// Determinism: the service is a pure function of (ServiceConfig, runner).
// Arrival counts are random-access per round, lease lengths are derived per
// client id, instance seeds per instance index (core/seeds.h), and the loop
// itself is sequential — so a metrics struct is byte-identical across runs
// and across whatever thread width the injected runner uses internally
// (the engine backend is thread-count-invariant by contract).
//
// The runner indirection keeps this layer free of backend knowledge: the
// service asks "run an instance with k participants and this seed" and gets
// back a rank permutation; api/churn.h binds that to the engine/fast-sim
// backends.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "service/churn.h"
#include "stats/summary.h"

namespace bil::service {

/// Outcome of one renaming instance run on behalf of the service: the rank
/// permutation (ranks[i] in 1..k for batch member i), how many service
/// rounds the instance occupied, and its message cost.
struct InstanceOutcome {
  std::uint32_t rounds = 0;
  std::uint64_t messages = 0;
  std::vector<std::uint64_t> ranks;
};

/// Runs one instance with `participants` balls under `seed`. Must return a
/// permutation of 1..participants (contract-checked by the service).
using InstanceRunner =
    std::function<InstanceOutcome(std::uint32_t participants,
                                  std::uint64_t seed)>;

/// Optional event tap, called synchronously from the driver loop in
/// deterministic order; the lease-invariant property tests hang off this.
class ServiceObserver {
 public:
  virtual ~ServiceObserver() = default;
  virtual void on_join(std::uint64_t client, std::uint64_t name,
                       std::uint32_t round) = 0;
  virtual void on_leave(std::uint64_t client, std::uint64_t name,
                        std::uint32_t round) = 0;
  virtual void on_instance(std::uint32_t round, std::uint32_t batch,
                           std::uint32_t instance_rounds) = 0;
  virtual void on_resize(std::uint32_t round, std::uint32_t old_size,
                         std::uint32_t new_size) = 0;
};

struct ServiceConfig {
  ChurnSpec churn;
  /// Target steady-state population (the n of "renaming at scale n").
  /// At most 2^30, so the power-of-two namespace can still double within
  /// 32 bits.
  std::uint32_t n = 0;
  std::uint64_t seed = 1;
  ServiceObserver* observer = nullptr;
};

/// The namespace never shrinks below this.
inline constexpr std::uint32_t kMinNamespace = 64;
/// Launch grows the namespace (doubling) until
/// (leased + batch) * 100 <= kGrowPercent * namespace.
inline constexpr std::uint32_t kGrowPercent = 90;
/// After departures, the namespace halves when
/// live * 100 < kShrinkPercent * namespace (and the leased set fits).
inline constexpr std::uint32_t kShrinkPercent = 25;

/// Steady-state metrics over one service horizon.
struct ServiceMetrics {
  /// The service seed the horizon ran under.
  std::uint64_t seed = 0;
  /// Clients that arrived / were assigned a name / departed in-window.
  std::uint64_t arrivals = 0;
  std::uint64_t joined = 0;
  std::uint64_t departed = 0;
  /// Renaming instances launched, their total occupied rounds, and their
  /// total message cost.
  std::uint64_t instances = 0;
  std::uint64_t instance_rounds = 0;
  std::uint64_t messages = 0;
  std::uint32_t horizon = 0;

  /// Names assigned per service round (joined / horizon).
  double names_per_round = 0.0;
  /// names_per_round / the spec's mean arrival rate: 1.0 means the service
  /// keeps up with churn (the steady-state throughput claim).
  double throughput_ratio = 0.0;
  /// Rounds-to-name per joined client (arrival -> name assignment),
  /// exact quantiles from an integer histogram.
  stats::Summary latency;
  /// Joiners per instance.
  stats::Summary batch;
  /// live clients / namespace size, sampled once per round.
  double density_mean = 0.0;

  std::uint32_t live_final = 0;
  std::uint32_t live_peak = 0;
  std::uint32_t namespace_final = 0;
  std::uint32_t namespace_peak = 0;
  /// Largest backlog ever observed (clients waiting for an instance).
  std::uint64_t backlog_peak = 0;
  std::uint32_t grows = 0;
  std::uint32_t shrinks = 0;
};

/// The long-lived driver. Construct with a config and an instance runner,
/// call run() once; the result is deterministic in the config alone.
class RenamingService {
 public:
  RenamingService(ServiceConfig config, InstanceRunner runner);

  [[nodiscard]] ServiceMetrics run();

 private:
  ServiceConfig config_;
  InstanceRunner runner_;
};

}  // namespace bil::service
