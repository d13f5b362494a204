#include "service/service.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/seeds.h"
#include "service/lease_table.h"
#include "util/contract.h"
#include "util/math.h"
#include "util/rng.h"

namespace bil::service {
namespace {

/// Exact Summary over an integer sample stored as a histogram
/// (counts[v] = multiplicity of value v). Matches stats::summarize on the
/// expanded sample for min/max/mean/quantiles; quantiles use the same
/// linear interpolation as stats::quantile. Keeping the histogram instead
/// of the expanded sample bounds memory at the horizon length no matter how
/// many millions of clients join.
stats::Summary summarize_histogram(const std::vector<std::uint64_t>& counts) {
  std::uint64_t total = 0;
  std::uint64_t sum = 0;
  std::uint64_t min_value = 0;
  std::uint64_t max_value = 0;
  for (std::size_t value = 0; value < counts.size(); ++value) {
    const std::uint64_t count = counts[value];
    if (count == 0) {
      continue;
    }
    if (total == 0) {
      min_value = value;
    }
    max_value = value;
    total += count;
    sum += count * value;
  }
  BIL_REQUIRE(total > 0, "summary of an empty histogram");

  // value_at(position): the sorted-sample element at a (fractional) index,
  // by walking the cumulative counts.
  const auto value_at = [&counts, total](double position) {
    const auto floor_index = static_cast<std::uint64_t>(position);
    const std::uint64_t ceil_index =
        std::min(floor_index + 1, total - 1);
    const double fraction = position - static_cast<double>(floor_index);
    double lower = 0.0;
    double upper = 0.0;
    std::uint64_t seen = 0;
    for (std::size_t value = 0; value < counts.size(); ++value) {
      if (counts[value] == 0) {
        continue;
      }
      const std::uint64_t next = seen + counts[value];
      if (floor_index >= seen && floor_index < next) {
        lower = static_cast<double>(value);
      }
      if (ceil_index >= seen && ceil_index < next) {
        upper = static_cast<double>(value);
        break;
      }
      seen = next;
    }
    return lower * (1.0 - fraction) + upper * fraction;
  };

  stats::Summary summary;
  summary.count = total;
  summary.mean = static_cast<double>(sum) / static_cast<double>(total);
  summary.min = static_cast<double>(min_value);
  summary.max = static_cast<double>(max_value);
  summary.median = value_at(0.5 * static_cast<double>(total - 1));
  summary.p99 = value_at(0.99 * static_cast<double>(total - 1));
  double m2 = 0.0;
  for (std::size_t value = 0; value < counts.size(); ++value) {
    if (counts[value] == 0) {
      continue;
    }
    const double delta = static_cast<double>(value) - summary.mean;
    m2 += delta * delta * static_cast<double>(counts[value]);
  }
  summary.stddev =
      total == 1 ? 0.0 : std::sqrt(m2 / static_cast<double>(total - 1));
  return summary;
}

/// Largest n (and min_namespace) the service accepts: its power-of-two
/// namespace must still double within 32 bits.
constexpr std::uint32_t kMaxNamespaceBase = std::uint32_t{1} << 30;

/// Smallest power of two >= value (1 <= value <= kMaxNamespaceBase).
std::uint32_t pow2_at_least(std::uint32_t value) {
  return is_power_of_two(value) ? value
                                : std::uint32_t{1} << ceil_log2(value);
}

struct PendingClient {
  std::uint64_t id = 0;
  std::uint32_t arrival_round = 0;
};

/// A lease that expires in the round of the ring bucket holding it.
struct Departure {
  std::uint64_t client = 0;
  std::uint64_t name = 0;
};

}  // namespace

RenamingService::RenamingService(ServiceConfig config, InstanceRunner runner)
    : config_(std::move(config)), runner_(std::move(runner)) {
  BIL_REQUIRE(config_.churn.enabled(),
              "RenamingService needs churn.horizon_rounds >= 1");
  BIL_REQUIRE(config_.n >= 1, "service population target must be at least 1");
  BIL_REQUIRE(config_.n <= kMaxNamespaceBase,
              "service population target n = " + std::to_string(config_.n) +
                  " needs a namespace that cannot double within 32 bits "
                  "(n must be at most 2^30)");
  BIL_REQUIRE(config_.min_namespace >= 1 &&
                  config_.min_namespace <= kMaxNamespaceBase,
              "min_namespace must be in [1, 2^30]");
  BIL_REQUIRE(config_.grow_percent >= 1 && config_.grow_percent <= 100,
              "grow_percent must be in [1, 100]");
  BIL_REQUIRE(config_.shrink_percent < config_.grow_percent,
              "shrink_percent must be below grow_percent (hysteresis)");
  BIL_REQUIRE(static_cast<bool>(runner_), "service needs an instance runner");
}

ServiceMetrics RenamingService::run() {
  const ChurnSpec& churn = config_.churn;
  const std::uint32_t horizon = churn.horizon_rounds;
  const std::uint32_t hold = churn.resolved_hold_rounds();
  const ChurnStream stream(churn, config_.n, config_.seed);
  ServiceObserver* observer = config_.observer;

  NameLeaseTable table(
      pow2_at_least(std::max(config_.min_namespace,
                             churn.warm_start ? config_.n : 1U)));
  std::vector<PendingClient> backlog;

  // Departure calendar. A lease lasts 1..2*hold-1 rounds, so every pending
  // departure is due within the next 2*hold rounds and owns the ring bucket
  // of its due round; departures due at or past the horizon are never
  // drained, so they are not stored, and the ring never needs more than
  // `horizon` buckets. Client ids grow in arrival order and leases start in
  // that same order (warm seating, then batches commit in backlog order),
  // so each bucket fills in ascending client id: draining it in append
  // order is (round, client) order.
  const auto ring_size = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(2 * std::uint64_t{hold}, horizon));
  std::vector<std::vector<Departure>> departures(ring_size);
  const auto schedule_departure = [&](std::uint64_t due, std::uint64_t client,
                                      std::uint64_t name) {
    if (due < horizon) {
      departures[due % ring_size].push_back(
          Departure{.client = client, .name = name});
    }
  };

  ServiceMetrics metrics;
  metrics.seed = config_.seed;
  metrics.horizon = horizon;
  std::vector<std::uint64_t> latency_counts(horizon, 0);
  std::vector<double> batch_sizes;
  double density_sum = 0.0;
  std::uint32_t live_clients = 0;
  std::uint64_t next_client = 0;

  // A client's lease length is a pure function of (service seed, client id):
  // uniform on [1, 2*hold - 1], mean = hold, so Little's law pins the
  // steady-state live population at n under the auto hold.
  const auto lease_length = [&](std::uint64_t client) {
    Rng rng(derive_seed(config_.seed, core::kSeedDomainChurnLease, client));
    return static_cast<std::uint32_t>(
        hold == 1 ? 1 : rng.between(1, 2 * std::uint64_t{hold} - 1));
  };

  if (churn.warm_start) {
    // A full steady-state population already holds names 1..n; their joins
    // predate round 0 and are not counted in arrival/latency metrics. Each
    // warm client's remaining lease is a fresh draw — the memoryless stand-in
    // for "the service has been running a while".
    const std::vector<std::uint64_t> names = table.acquire(config_.n);
    for (std::uint32_t i = 0; i < config_.n; ++i) {
      const std::uint64_t client = next_client++;
      schedule_departure(lease_length(client), client, names[i]);
      // Observers see the seating as joins at round 0 so every on_leave has
      // a matching on_join; the metrics still exclude these pre-horizon
      // joins.
      if (observer != nullptr) {
        observer->on_join(client, names[i], 0);
      }
    }
    live_clients = config_.n;
  }

  // In-flight instance state (at most one instance runs at a time).
  bool in_flight = false;
  std::uint32_t completes_at = 0;
  InstanceOutcome outcome;
  std::vector<PendingClient> batch;
  std::vector<std::uint64_t> reserved;

  for (std::uint32_t round = 0; round < horizon; ++round) {
    // 1. Commit the in-flight instance: rank i (1-based) takes the i-th
    // smallest reserved name, so the instance's tight 1..k guarantee maps
    // onto the packed low end of the free pool.
    if (in_flight && completes_at == round) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::uint64_t rank = outcome.ranks[i];
        const std::uint64_t name = reserved[rank - 1];
        const std::uint32_t latency = round - batch[i].arrival_round;
        ++latency_counts[latency];
        ++metrics.joined;
        ++live_clients;
        schedule_departure(std::uint64_t{round} + lease_length(batch[i].id),
                           batch[i].id, name);
        if (observer != nullptr) {
          observer->on_join(batch[i].id, name, round);
        }
      }
      in_flight = false;
      batch.clear();
      reserved.clear();
    }

    // 2. Departures due this round, then a shrink check: halve the
    // namespace when occupancy dropped below the shrink threshold and every
    // leased (or reserved) name fits in the smaller range.
    std::vector<Departure>& leaving = departures[round % ring_size];
    for (const Departure& leave : leaving) {
      table.release(leave.name);
      --live_clients;
      ++metrics.departed;
      if (observer != nullptr) {
        observer->on_leave(leave.client, leave.name, round);
      }
    }
    leaving.clear();
    while (table.namespace_size() / 2 >= config_.min_namespace &&
           std::uint64_t{table.live()} * 100 <
               std::uint64_t{config_.shrink_percent} * table.namespace_size()) {
      const std::uint32_t old_size = table.namespace_size();
      if (!table.try_shrink(old_size / 2)) {
        break;  // A straggler lease still pins the top half.
      }
      ++metrics.shrinks;
      if (observer != nullptr) {
        observer->on_resize(round, old_size, table.namespace_size());
      }
    }

    // 3. Arrivals queue in the backlog.
    const std::uint32_t arriving = stream.arrivals_at(round);
    for (std::uint32_t i = 0; i < arriving; ++i) {
      backlog.push_back(
          PendingClient{.id = next_client++, .arrival_round = round});
    }
    metrics.arrivals += arriving;
    metrics.backlog_peak = std::max(metrics.backlog_peak,
                                    static_cast<std::uint64_t>(backlog.size()));

    // 4. Launch the next instance over the whole backlog. Names are
    // reserved now — not at commit — so departures during the flight can
    // never shrink the namespace out from under the batch.
    if (!in_flight && !backlog.empty()) {
      const auto k = static_cast<std::uint32_t>(backlog.size());
      while (std::uint64_t{table.live()} + k >
             std::uint64_t{config_.grow_percent} * table.namespace_size() /
                 100) {
        const std::uint32_t old_size = table.namespace_size();
        table.grow(old_size * 2);
        ++metrics.grows;
        if (observer != nullptr) {
          observer->on_resize(round, old_size, table.namespace_size());
        }
      }
      reserved = table.acquire(k);
      batch.swap(backlog);  // batch was empty: it is cleared at commit

      const std::uint64_t instance_seed = derive_seed(
          config_.seed, core::kSeedDomainServiceInstance, metrics.instances);
      outcome = runner_(k, instance_seed);
      BIL_REQUIRE(outcome.ranks.size() == k,
                  "instance runner returned " +
                      std::to_string(outcome.ranks.size()) + " ranks for " +
                      std::to_string(k) + " participants");
      BIL_REQUIRE(outcome.rounds >= 1,
                  "instance runner reported a zero-round instance");
      ++metrics.instances;
      metrics.instance_rounds += outcome.rounds;
      metrics.messages += outcome.messages;
      batch_sizes.push_back(static_cast<double>(k));
      if (observer != nullptr) {
        observer->on_instance(round, k, outcome.rounds);
      }
      in_flight = true;
      completes_at = round + outcome.rounds;
      // An instance that would complete past the horizon never commits:
      // its joiners stay pending, like the backlog itself.
    }

    metrics.live_peak = std::max(metrics.live_peak, live_clients);
    metrics.namespace_peak =
        std::max(metrics.namespace_peak, table.namespace_size());
    density_sum += static_cast<double>(live_clients) /
                   static_cast<double>(table.namespace_size());
  }

  metrics.live_final = live_clients;
  metrics.namespace_final = table.namespace_size();
  metrics.names_per_round =
      static_cast<double>(metrics.joined) / static_cast<double>(horizon);
  metrics.throughput_ratio =
      metrics.names_per_round / churn.mean_arrivals_per_round(config_.n);
  metrics.density_mean = density_sum / static_cast<double>(horizon);
  if (metrics.joined > 0) {
    metrics.latency = summarize_histogram(latency_counts);
  }
  if (!batch_sizes.empty()) {
    metrics.batch = stats::summarize(batch_sizes);
  }
  return metrics;
}

}  // namespace bil::service
