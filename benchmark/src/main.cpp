// bil_bench: runs one workload of the repository benchmark and prints one
// JSON result as the last line of standard output. benchmark/run.py builds
// it and runs it once per workload; benchmark/README.md describes the
// workloads and metrics.
//
//   bil_bench --workload=NAME [--seed=N] [--seconds=S]
//             [--trace [--trace-out=FILE]] [--expect-fingerprint=HEX]
//   bil_bench --smoke
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "json.h"
#include "layers.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace bilbench {
namespace {

/// Set-ups per measured run; setup_s is their median.
constexpr int kSetups = 15;
/// Threads every parallel call uses: at most four, never more than the host.
constexpr std::uint32_t kMaxWidth = 4;

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::optional<std::uint64_t> fingerprint;
  std::size_t passes = 0;
  double timed_s = 0.0;
  std::vector<Metric> metrics;
  /// Trace mode: layer groups timed by a toy probe because the workload's
  /// own calls never reached them.
  std::vector<std::string> probed_layers;

  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    std::cerr << "bil_bench: " << why << '\n';
    if (errors.size() < 8) {
      errors.push_back(why);
    }
  }
};

/// Runs calls and checks each one: it must not throw, must reproduce the
/// fingerprint of the first run of the same call, and that first run must
/// match the workload's independent reference where it has one.
class PassLedger {
 public:
  PassLedger(Workload& workload, Outcome& outcome)
      : workload_(workload),
        outcome_(outcome),
        first_(workload.pass_size()),
        ops_(workload.pass_size(), 1) {}

  std::optional<Call> attempt(std::size_t index,
                              const std::function<Call()>& fn) {
    const std::string where = "call " + std::to_string(index) + ": ";
    Call call;
    try {
      call = fn();
    } catch (const std::exception& error) {
      outcome_.attempted += ops_[index];
      outcome_.fail(ops_[index], where + error.what());
      return std::nullopt;
    }
    outcome_.attempted += call.ops;
    ops_[index] = call.ops;
    if (first_[index].has_value()) {
      if (*first_[index] != call.fingerprint) {
        outcome_.fail(call.ops, where + "output differs from its first run");
        return std::nullopt;
      }
      return call;
    }
    first_[index] = call.fingerprint;
    try {
      const std::optional<std::uint64_t> reference =
          workload_.reference(index);
      if (reference.has_value() && *reference != call.fingerprint) {
        outcome_.fail(call.ops,
                      where + "output differs from the reference executor");
        return std::nullopt;
      }
    } catch (const std::exception& error) {
      outcome_.fail(call.ops, where + "reference failed: " + error.what());
      return std::nullopt;
    }
    return call;
  }

  /// FNV-1a over every call's fingerprint, once each call has run.
  [[nodiscard]] std::optional<std::uint64_t> pass_fingerprint() const {
    Fnv1a hash;
    for (const std::optional<std::uint64_t>& print : first_) {
      if (!print.has_value()) {
        return std::nullopt;
      }
      hash.add_u64(*print);
    }
    return hash.value();
  }

 private:
  Workload& workload_;
  Outcome& outcome_;
  std::vector<std::optional<std::uint64_t>> first_;
  std::vector<std::uint64_t> ops_;
};

std::string hex(std::uint64_t value) {
  static const char* const digits = "0123456789abcdef";
  std::string text(16, '0');
  for (int i = 15; i >= 0; --i, value >>= 4) {
    text[static_cast<std::size_t>(i)] = digits[value & 0xf];
  }
  return text;
}

/// Durations of each call of the pass, over the passes run. A pass takes
/// the sum over its calls of each call's fastest repeat. On a shared host,
/// neighbours contending for caches and memory only ever slow a call down,
/// and by up to 3x over tens of seconds; the fastest of many short repeats
/// is the one closest to the code's own cost, and it is the estimate that
/// repeats from run to run.
struct PassTimes {
  explicit PassTimes(std::size_t calls) : seconds(calls), ops(calls, 0) {}

  [[nodiscard]] double fastest_pass_seconds() const {
    double total = 0.0;
    for (const Samples& call : seconds) {
      total += call.min();
    }
    return total;
  }
  [[nodiscard]] std::uint64_t pass_ops() const {
    std::uint64_t total = 0;
    for (const std::uint64_t call_ops : ops) {
      total += call_ops;
    }
    return total;
  }

  std::vector<Samples> seconds;
  std::vector<std::uint64_t> ops;
  std::size_t passes = 0;
  /// Σ of every checked call's duration.
  double total_seconds = 0.0;
};

/// Runs whole passes, at least one, until `seconds` of timed calls have
/// accumulated, adding each checked call's duration to `times`. Whole
/// passes keep a workload's call mix fixed whatever the run length.
void run_passes(Workload& workload, PassLedger& ledger, Outcome& outcome,
                double seconds, const std::function<Call(std::size_t)>& call,
                PassTimes& times) {
  double timed = 0.0;
  const std::int64_t start = now_ns();
  // The wall-clock guard ends a run whose every call fails (and so never
  // accumulates timed seconds).
  do {
    for (std::size_t i = 0; i < workload.pass_size(); ++i) {
      if (const std::optional<Call> result =
              ledger.attempt(i, [&] { return call(i); })) {
        times.seconds[i].add(result->seconds);
        times.ops[i] = result->ops;
        times.total_seconds += result->seconds;
        timed += result->seconds;
      }
    }
    ++times.passes;
    ++outcome.passes;
  } while (timed < seconds && seconds_between(start, now_ns()) < 4 * seconds);
  outcome.timed_s += timed;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Outcome measure(Workload& workload, std::uint64_t seed, double seconds) {
  Outcome outcome;
  // Set-up is what a run pays before its first timed call: the fixed work
  // derived from the seed, tree shapes for its sizes, and one warm-up call
  // at toy size through the same public function.
  Samples setup_s;
  for (int k = 0; k < kSetups; ++k) {
    const std::int64_t start = now_ns();
    workload.prepare(seed, Scale::kToy);
    try {
      (void)workload.run(0);
    } catch (const std::exception& error) {
      outcome.fail(1, std::string("set-up warm-up call: ") + error.what());
    }
    workload.prepare(seed, Scale::kFull);
    setup_s.add(seconds_between(start, now_ns()));
  }
  PassLedger ledger(workload, outcome);
  // Untimed full-size warm-up: lets lazy allocations settle before timing.
  (void)ledger.attempt(0, [&] { return workload.run(0); });
  PassTimes times(workload.pass_size());
  run_passes(
      workload, ledger, outcome, seconds,
      [&](std::size_t i) { return workload.run(i); }, times);
  outcome.fingerprint = ledger.pass_fingerprint();
  const double pass_s = times.fastest_pass_seconds();
  outcome.metrics = {
      {"setup_s", setup_s.median(), "s",
       "median of " + std::to_string(kSetups) + " set-ups"},
      {"ops_per_s",
       pass_s > 0.0 ? static_cast<double>(times.pass_ops()) / pass_s : 0.0,
       "op/s",
       std::to_string(times.pass_ops()) + " ops per pass, fastest pass " +
           json_number(pass_s) + " s over " + std::to_string(times.passes) +
           " passes"},
      {"peak_rss_mb", peak_rss_mb(), "MiB", "getrusage max RSS"},
  };
  return outcome;
}

Outcome trace(Workload& workload, const std::string& name, std::uint64_t seed,
              double seconds, std::uint32_t width,
              const std::string& trace_out) {
  Outcome outcome;
  workload.prepare(seed, Scale::kFull);
  Trace trace;
  trace.workload_span =
      trace.spans.begin("workload:" + name, SpanLog::kNone, 0);
  PassLedger ledger(workload, outcome);
  (void)ledger.attempt(0, [&] { return workload.run(0); });  // warm-up
  // Untraced and traced passes alternate, so drift over the run cancels out
  // of the overhead estimate. The first untraced pass sets the fingerprints
  // every traced call must reproduce.
  PassTimes untraced(workload.pass_size());
  PassTimes traced(workload.pass_size());
  const std::int64_t start = now_ns();
  do {
    run_passes(
        workload, ledger, outcome, 0.0,
        [&](std::size_t i) { return workload.run(i); }, untraced);
    run_passes(
        workload, ledger, outcome, 0.0,
        [&](std::size_t i) { return workload.run_traced(i, trace); }, traced);
  } while (traced.total_seconds < seconds &&
           seconds_between(start, now_ns()) < 4 * seconds);
  trace.stats.untraced_pass_ms = untraced.fastest_pass_seconds() * 1e3;
  trace.stats.traced_pass_ms = traced.fastest_pass_seconds() * 1e3;
  try {
    workload.probe(trace);
  } catch (const std::exception& error) {
    outcome.fail(1, std::string("layer probe: ") + error.what());
  }
  probe_common(trace.stats, Scale::kFull, width);
  try {
    outcome.probed_layers = probe_unused_layers(trace.stats, width);
  } catch (const std::exception& error) {
    outcome.fail(1, std::string("toy layer probe: ") + error.what());
  }
  trace.spans.end(trace.workload_span);
  outcome.fingerprint = ledger.pass_fingerprint();
  outcome.metrics = per_layer(trace.stats);
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    trace.spans.write_jsonl(out);
    if (!out) {
      outcome.fail(0, "cannot write spans to " + trace_out);
    }
  }
  return outcome;
}

/// Every workload at toy size, untraced and traced: the traced calls must
/// reproduce the untraced fingerprints and every check must hold.
int smoke(std::uint32_t width) {
  bool ok = true;
  for (const std::string& name : workload_names()) {
    const std::int64_t start = now_ns();
    const std::unique_ptr<Workload> workload = make_workload(name, width);
    Outcome outcome;
    workload->prepare(1, Scale::kToy);
    PassLedger ledger(*workload, outcome);
    Trace trace;
    for (std::size_t i = 0; i < workload->pass_size(); ++i) {
      (void)ledger.attempt(i, [&] { return workload->run(i); });
      (void)ledger.attempt(i, [&] { return workload->run_traced(i, trace); });
    }
    try {
      workload->probe(trace);
    } catch (const std::exception& error) {
      outcome.fail(1, name + " layer probe: " + error.what());
    }
    probe_common(trace.stats, Scale::kToy, width);
    (void)per_layer(trace.stats);
    ok = ok && outcome.failed == 0 && outcome.errors.empty();
    std::cout << "smoke " << name << ": "
              << (outcome.errors.empty() ? "ok" : "FAILED") << " ("
              << outcome.attempted << " ops, "
              << seconds_between(start, now_ns()) << " s)\n";
  }
  try {
    LayerStats stats;
    (void)probe_unused_layers(stats, width);
  } catch (const std::exception& error) {
    std::cout << "smoke toy layer probes: FAILED (" << error.what() << ")\n";
    ok = false;
  }
  return ok ? 0 : 1;
}

std::string json_strings(const std::vector<std::string>& texts) {
  std::string out = "[";
  for (std::size_t i = 0; i < texts.size(); ++i) {
    out += i == 0 ? "" : ",";
    out += json_string(texts[i]);
  }
  return out + "]";
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

void print_result(const Outcome& outcome, const std::string& name,
                  std::uint64_t seed, std::uint32_t seconds, bool traced,
                  std::uint32_t width) {
  std::cout << "{\"workload\":" << json_string(name) << ",\"seed\":" << seed
            << ",\"seconds\":" << seconds
            << ",\"trace\":" << (traced ? "true" : "false")
            << ",\"width\":" << width
            << ",\"build_type\":" << json_string(BIL_BENCH_BUILD_TYPE)
            << ",\"compiler\":" << json_string(compiler()) << ",\"correct\":"
            << (outcome.failed == 0 && outcome.errors.empty() ? "true"
                                                              : "false")
            << ",\"attempted\":" << outcome.attempted
            << ",\"failed\":" << outcome.failed << ",\"fingerprint\":"
            << (outcome.fingerprint ? json_string(hex(*outcome.fingerprint))
                                    : "null")
            << ",\"passes\":" << outcome.passes
            << ",\"timed_s\":" << json_number(outcome.timed_s)
            << ",\"errors\":" << json_strings(outcome.errors)
            << ",\"probed_layers\":" << json_strings(outcome.probed_layers)
            << ",\"metrics\":{";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& metric = outcome.metrics[i];
    std::cout << (i == 0 ? "" : ",") << json_string(metric.name)
              << ":{\"value\":" << json_number(metric.value)
              << ",\"unit\":" << json_string(metric.unit)
              << ",\"note\":" << json_string(metric.note) << '}';
  }
  std::cout << "}}" << std::endl;
}

int run(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  std::uint32_t seconds = 15;
  bool traced = false;
  std::string trace_out;
  std::string expect;
  bool smoke_test = false;
  bil::FlagSet flags("bil_bench",
                     "Runs one workload of the repository benchmark and "
                     "prints its result as one JSON line.");
  flags.add_string("workload", &workload_name,
                   "engine-broadcast|engine-faults|fastsim-scale|"
                   "service-churn|search-hunt|report-ci");
  flags.add_uint("seed", &seed, "derives every input of the workload");
  flags.add_uint32("seconds", &seconds,
                   "timed seconds to measure (whole passes)");
  flags.add_bool("trace", &traced,
                 "measure per-layer metrics instead of end-to-end ones");
  flags.add_string("trace-out", &trace_out,
                   "with --trace: write the spans here as JSONL");
  flags.add_string("expect-fingerprint", &expect,
                   "fail every op of the pass unless the pass fingerprint "
                   "(hex) equals this");
  flags.add_bool("smoke", &smoke_test,
                 "run every workload at toy size, traced and untraced");
  if (!flags.parse(argc - 1, argv + 1)) {
    return 0;
  }
  const std::uint32_t width =
      std::min(kMaxWidth, bil::util::ThreadPool::hardware_threads());
  if (smoke_test) {
    return smoke(width);
  }
  const std::unique_ptr<Workload> workload =
      make_workload(workload_name, width);
  Outcome outcome =
      traced ? trace(*workload, workload_name, seed, seconds, width, trace_out)
             : measure(*workload, seed, seconds);
  if (!outcome.fingerprint.has_value()) {
    outcome.fail(0, "no complete pass, so no fingerprint");
  } else if (!expect.empty() && hex(*outcome.fingerprint) != expect) {
    outcome.fail(outcome.attempted - outcome.failed,
                 "pass fingerprint " + hex(*outcome.fingerprint) +
                     " differs from the expected " + expect);
  }
  print_result(outcome, workload_name, seed, seconds, traced, width);
  return 0;
}

}  // namespace
}  // namespace bilbench

int main(int argc, char** argv) {
  try {
    return bilbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "bil_bench: " << error.what() << '\n';
    return 2;
  }
}
