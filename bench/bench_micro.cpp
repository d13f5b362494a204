// E11 — micro-benchmarks (google-benchmark): the building blocks' costs.
// Not a paper claim; engineering data for users sizing simulations.
//
// `bench_micro --json` switches to the engine-throughput perf smoke: full
// engine runs at n ∈ {256, 1024, 4096}, crash-free and under an adversary,
// reported as rounds/sec and deliveries/sec in machine-readable JSON, plus
// a `targeted_throughput` series timing the traffic-oracle fast path on
// targeted-adversary cells at n ∈ {2^14, 2^16}.
// `bench_micro --json --thread-scaling` instead sweeps the intra-round
// parallel executor over a threads × n grid (identical seeds at every
// width — the engine is thread-count-deterministic) and reports rounds/sec
// plus speedup vs the 1-thread baseline. CI uploads both as artifacts so
// every engine change leaves a recorded before/after trail (see
// docs/perf.md for the numbers recorded so far).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "api/backend.h"
#include "core/fast_sim.h"
#include "core/messages.h"
#include "core/policy.h"
#include "harness/runner.h"
#include "tree/local_view.h"
#include "tree/shape.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace bil;

void BM_TreeShapeBuild(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    tree::TreeShape shape(n);
    benchmark::DoNotOptimize(shape.num_nodes());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_TreeShapeBuild)->Range(1 << 8, 1 << 16)->Complexity();

void BM_WeightedPathSample(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto shape = tree::TreeShape::make(n);
  tree::LocalTreeView view(shape);
  std::vector<sim::Label> labels(n / 2);
  for (std::uint32_t i = 0; i < n / 2; ++i) {
    labels[i] = i;
  }
  view.insert_all_at_root(labels);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::sample_weighted_leaf(view, tree::TreeShape::root(), rng));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_WeightedPathSample)->Range(1 << 8, 1 << 16)->Complexity();

void BM_DescendAndReset(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto shape = tree::TreeShape::make(n);
  tree::LocalTreeView view(shape);
  view.insert_all_at_root(std::vector<sim::Label>{0});
  Rng rng(9);
  for (auto _ : state) {
    const tree::NodeId leaf = shape->leaf_at(
        static_cast<std::uint32_t>(rng.below(n)));
    benchmark::DoNotOptimize(view.descend_toward(0, leaf));
    view.reposition(0, tree::TreeShape::root());
  }
}
BENCHMARK(BM_DescendAndReset)->Range(1 << 8, 1 << 16);

void BM_MessageEncodeDecode(benchmark::State& state) {
  const core::Message message =
      core::PathMsg{.label = 123456, .start = 77, .target = 4093};
  for (auto _ : state) {
    const wire::Buffer buffer = core::encode_message(message);
    benchmark::DoNotOptimize(core::decode_message(buffer));
  }
}
BENCHMARK(BM_MessageEncodeDecode);

void BM_FastSimFullRun(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    core::FastSimOptions options;
    options.n = n;
    options.seed = seed++;
    benchmark::DoNotOptimize(core::run_fast_sim(options).phases);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_FastSimFullRun)->Range(1 << 8, 1 << 14)->Complexity();

void BM_OrderedBalls(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto shape = tree::TreeShape::make(n);
  tree::LocalTreeView view(shape);
  std::vector<sim::Label> labels(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    labels[i] = i;
  }
  view.insert_all_at_root(labels);
  Rng rng(3);
  for (std::uint32_t i = 0; i < n; ++i) {
    view.descend_toward(i, shape->leaf_at(
                               static_cast<std::uint32_t>(rng.below(n))));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.ordered_balls().size());
  }
}
BENCHMARK(BM_OrderedBalls)->Range(1 << 8, 1 << 14);

// ---- engine-throughput perf smoke (--json) ----------------------------------

struct ThroughputScenario {
  const char* name;
  harness::AdversarySpec (*adversary)(std::uint32_t n);
};

harness::AdversarySpec no_adversary(std::uint32_t /*n*/) { return {}; }

harness::AdversarySpec oblivious_adversary(std::uint32_t n) {
  return harness::AdversarySpec{.kind = harness::AdversaryKind::kOblivious,
                                .crashes = n / 16,
                                .horizon = 8,
                                .subset = sim::SubsetPolicy::kRandomHalf};
}

struct ThroughputSample {
  std::uint64_t rounds = 0;
  std::uint64_t deliveries = 0;
  double seconds = 0;
};

/// Executes `runs` full engine runs at a fixed executor width. Seeds are
/// fixed so before/after (and across-thread-count) numbers measure the
/// exact same work — the engine is thread-count-deterministic.
ThroughputSample measure_throughput(const ThroughputScenario& scenario,
                                    std::uint32_t n, std::uint32_t runs,
                                    std::uint32_t engine_threads) {
  ThroughputSample sample;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < runs; ++i) {
    harness::RunConfig config;
    config.algorithm = harness::Algorithm::kBallsIntoLeaves;
    config.n = n;
    config.seed = 1000 + i;
    config.adversary = scenario.adversary(n);
    config.engine_threads = engine_threads;
    const harness::RunSummary summary = harness::run_renaming(config);
    sample.rounds += summary.total_rounds;
    sample.deliveries += summary.messages_delivered;
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  sample.seconds = elapsed.count();
  return sample;
}

void emit_throughput_row(std::FILE* out, const ThroughputScenario& scenario,
                         std::uint32_t n, std::uint32_t runs, bool last) {
  const ThroughputSample sample = measure_throughput(scenario, n, runs, 1);
  std::fprintf(
      out,
      "    {\"scenario\":\"%s\",\"n\":%u,\"runs\":%u,\"rounds\":%llu,"
      "\"deliveries\":%llu,\"seconds\":%.6f,\"rounds_per_sec\":%.1f,"
      "\"deliveries_per_sec\":%.1f}%s\n",
      scenario.name, n, runs,
      static_cast<unsigned long long>(sample.rounds),
      static_cast<unsigned long long>(sample.deliveries), sample.seconds,
      static_cast<double>(sample.rounds) / sample.seconds,
      static_cast<double>(sample.deliveries) / sample.seconds,
      last ? "" : ",");
}

/// One row of the `targeted_throughput` series: full FastSimBackend runs of
/// a targeted-adversary cell (the traffic-oracle path,
/// core/fast_sim_targeted.h), reported as rounds/sec. perf-smoke uploads
/// this per push as the regression trail for the oracle fast path — sizes
/// the engine cannot serve in a smoke budget, so any symbolic-path
/// slowdown shows here and nowhere else.
void emit_targeted_row(std::FILE* out, harness::AdversaryKind kind,
                       const char* name, std::uint32_t n, std::uint32_t runs,
                       bool last) {
  const api::FastSimBackend fast;
  api::CellConfig cell;
  cell.algorithm = harness::Algorithm::kBallsIntoLeaves;
  cell.n = n;
  cell.adversary = harness::AdversarySpec{
      .kind = kind,
      .crashes = 64,
      .per_round = 2,
      .subset = sim::SubsetPolicy::kAlternating};
  std::uint64_t rounds = 0;
  std::uint64_t deliveries = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < runs; ++i) {
    const api::RunRecord record = fast.run(cell, 1000 + i);
    rounds += record.total_rounds;
    deliveries += record.messages_delivered;
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  std::fprintf(
      out,
      "    {\"scenario\":\"%s\",\"n\":%u,\"runs\":%u,\"rounds\":%llu,"
      "\"deliveries\":%llu,\"seconds\":%.6f,\"rounds_per_sec\":%.1f}%s\n",
      name, n, runs, static_cast<unsigned long long>(rounds),
      static_cast<unsigned long long>(deliveries), elapsed.count(),
      static_cast<double>(rounds) / elapsed.count(), last ? "" : ",");
}

/// One row of the `async_overhead` series: the bounded-delay scheduler in
/// lockstep mode (d = 1 — bit-identical results, zero scheduling
/// randomness) against the synchronous scheduler on the same seeds. Both
/// run the same Engine::step(), so the ratio is the cost of the delay
/// scheduler's own deliver_at calls and should stay near 1.
void emit_async_row(std::FILE* out, std::uint32_t n, std::uint32_t runs,
                    bool last) {
  const auto measure = [&](bool async) {
    ThroughputSample sample;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < runs; ++i) {
      harness::RunConfig config;
      config.algorithm = harness::Algorithm::kBallsIntoLeaves;
      config.n = n;
      config.seed = 1000 + i;
      if (async) {
        config.adversary =
            harness::AdversarySpec{.kind = harness::AdversaryKind::kBoundedDelay,
                                   .delay = {.max_delay = 1}};
      }
      config.engine_threads = 1;
      const harness::RunSummary summary = harness::run_renaming(config);
      sample.rounds += summary.total_rounds;
      sample.deliveries += summary.messages_delivered;
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    sample.seconds = elapsed.count();
    return sample;
  };
  const ThroughputSample sync = measure(false);
  const ThroughputSample async_sample = measure(true);
  std::fprintf(
      out,
      "    {\"n\":%u,\"runs\":%u,\"rounds\":%llu,"
      "\"sync_seconds\":%.6f,\"async_seconds\":%.6f,"
      "\"sync_rounds_per_sec\":%.1f,\"async_rounds_per_sec\":%.1f,"
      "\"overhead_ratio\":%.4f}%s\n",
      n, runs, static_cast<unsigned long long>(sync.rounds), sync.seconds,
      async_sample.seconds,
      static_cast<double>(sync.rounds) / sync.seconds,
      static_cast<double>(async_sample.rounds) / async_sample.seconds,
      async_sample.seconds / sync.seconds, last ? "" : ",");
}

int run_json_mode() {
  constexpr ThroughputScenario kScenarios[] = {
      {"crash-free", &no_adversary},
      {"oblivious-n16", &oblivious_adversary},
  };
  constexpr std::uint32_t kSizes[] = {256, 1024, 4096};
  // Fewer repetitions at larger n: per-run delivery work grows ~n² while the
  // smoke should stay under a couple of minutes even pre-optimization.
  constexpr std::uint32_t kRuns[] = {10, 5, 2};
  std::FILE* out = stdout;
  std::fprintf(out, "{\n  \"engine_throughput\": [\n");
  for (std::size_t s = 0; s < std::size(kScenarios); ++s) {
    for (std::size_t i = 0; i < std::size(kSizes); ++i) {
      const bool last =
          s + 1 == std::size(kScenarios) && i + 1 == std::size(kSizes);
      emit_throughput_row(out, kScenarios[s], kSizes[i], kRuns[i], last);
    }
  }
  std::fprintf(out, "  ],\n  \"targeted_throughput\": [\n");
  constexpr std::uint32_t kTargetedSizes[] = {1u << 14, 1u << 16};
  constexpr std::uint32_t kTargetedRuns[] = {4, 2};
  for (std::size_t i = 0; i < std::size(kTargetedSizes); ++i) {
    emit_targeted_row(out, harness::AdversaryKind::kTargetedWinner,
                      "targeted-winner", kTargetedSizes[i], kTargetedRuns[i],
                      false);
    emit_targeted_row(out, harness::AdversaryKind::kTargetedAnnouncer,
                      "targeted-announcer", kTargetedSizes[i],
                      kTargetedRuns[i], i + 1 == std::size(kTargetedSizes));
  }
  std::fprintf(out, "  ],\n  \"async_overhead\": [\n");
  constexpr std::uint32_t kAsyncSizes[] = {1u << 12, 1u << 14};
  constexpr std::uint32_t kAsyncRuns[] = {2, 1};
  for (std::size_t i = 0; i < std::size(kAsyncSizes); ++i) {
    emit_async_row(out, kAsyncSizes[i], kAsyncRuns[i],
                   i + 1 == std::size(kAsyncSizes));
  }
  std::fprintf(out, "  ]\n}\n");
  return 0;
}

/// `--json --thread-scaling`: the intra-round executor's speedup grid.
/// threads × n, rounds/sec and speedup vs the 1-thread baseline of the
/// same (scenario, n) — identical seeds, bit-identical runs, so the ratio
/// is pure executor overhead vs parallelism. CI uploads this per push
/// (engine-thread-scaling artifact); docs/perf.md tracks the trend.
int run_thread_scaling_mode() {
  constexpr ThroughputScenario kScenarios[] = {
      {"crash-free", &no_adversary},
      {"oblivious-n16", &oblivious_adversary},
  };
  constexpr std::uint32_t kSizes[] = {1024, 4096};
  constexpr std::uint32_t kRuns[] = {3, 1};
  const std::uint32_t hw = util::ThreadPool::hardware_threads();
  std::vector<std::uint32_t> thread_counts;
  for (std::uint32_t t = 1; t < hw; t *= 2) {
    thread_counts.push_back(t);
  }
  thread_counts.push_back(hw);  // always include the full machine
  std::FILE* out = stdout;
  std::fprintf(out, "{\n  \"hardware_threads\": %u,\n", hw);
  std::fprintf(out, "  \"engine_thread_scaling\": [\n");
  for (std::size_t s = 0; s < std::size(kScenarios); ++s) {
    for (std::size_t i = 0; i < std::size(kSizes); ++i) {
      double baseline_seconds = 0;
      for (std::size_t t = 0; t < thread_counts.size(); ++t) {
        const ThroughputSample sample = measure_throughput(
            kScenarios[s], kSizes[i], kRuns[i], thread_counts[t]);
        if (thread_counts[t] == 1) {
          baseline_seconds = sample.seconds;
        }
        const bool last = s + 1 == std::size(kScenarios) &&
                          i + 1 == std::size(kSizes) &&
                          t + 1 == thread_counts.size();
        std::fprintf(
            out,
            "    {\"scenario\":\"%s\",\"n\":%u,\"threads\":%u,\"runs\":%u,"
            "\"rounds\":%llu,\"seconds\":%.6f,\"rounds_per_sec\":%.1f,"
            "\"speedup_vs_1\":%.2f}%s\n",
            kScenarios[s].name, kSizes[i], thread_counts[t], kRuns[i],
            static_cast<unsigned long long>(sample.rounds), sample.seconds,
            static_cast<double>(sample.rounds) / sample.seconds,
            baseline_seconds > 0 ? baseline_seconds / sample.seconds : 1.0,
            last ? "" : ",");
      }
    }
  }
  std::fprintf(out, "  ]\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool thread_scaling = false;
  for (int i = 1; i < argc; ++i) {
    json |= std::strcmp(argv[i], "--json") == 0;
    thread_scaling |= std::strcmp(argv[i], "--thread-scaling") == 0;
  }
  if (json) {
    return thread_scaling ? run_thread_scaling_mode() : run_json_mode();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
