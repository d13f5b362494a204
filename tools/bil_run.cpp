// bil_run — command-line front end for the renaming simulator.
//
//   $ bil_run --algorithm=bil --n=256 --seeds=10 --adversary=oblivious
//   $ bil_run --algorithm=bil,halving --n=256,1024,4096 --json
//   $ bil_run --algorithm=halving --n=1024 --csv
//   $ bil_run --n=8 --trace          # watch every round of a tiny run
//   $ bil_run --list-algorithms
//
// A thin shell over bil::api: flags build an ExperimentSpec (comma-separated
// values sweep a grid), SweepRunner executes it across a thread pool, and
// the result prints as an aligned table, CSV, or JSON. Algorithm and
// adversary names come from the api registry — the same tables that back
// --list-algorithms / --list-adversaries.
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "api/backend.h"
#include "api/registry.h"
#include "api/sweep.h"
#include "service/churn.h"
#include "service/service.h"
#include "sim/trace.h"
#include "stats/table.h"
#include "util/contract.h"
#include "util/flags.h"

namespace {

using namespace bil;

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> items;
  std::istringstream stream(list);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) {
      items.push_back(item);
    }
  }
  BIL_REQUIRE(!items.empty(), "expected a non-empty comma-separated list");
  return items;
}

/// --list-algorithms: every registry entry with its construction family
/// (tree / gossip / bins / splitter), so new baselines are discoverable by
/// the class of algorithm they represent.
void list_algorithms_table(std::ostream& os) {
  os << "registered algorithms:\n";
  for (const api::AlgorithmInfo& info : api::algorithm_registry()) {
    os << "  " << info.name;
    for (const std::string& alias : info.aliases) {
      os << " (" << alias << ')';
    }
    os << "  [family: " << info.family << "]\n"
       << "      " << info.description << '\n';
  }
}

/// --list-adversaries: grouped by fault model, with the fast-sim capability
/// spelled out per entry (the byzantine kinds need --backend engine).
void list_adversaries_grouped(std::ostream& os) {
  os << "registered adversaries:\n";
  for (const harness::FaultModel model :
       {harness::FaultModel::kCrash, harness::FaultModel::kByzantine,
        harness::FaultModel::kDelay}) {
    os << "\nfault model: " << harness::to_string(model) << '\n';
    for (const api::AdversaryInfo& info : api::adversary_registry()) {
      if (info.fault_model != model) {
        continue;
      }
      os << "  " << info.name;
      for (const char* alias : info.aliases) {
        os << " (" << alias << ')';
      }
      os << "  [timing: " << info.timing() << "; fast-sim: "
         << (info.fast_sim_capable() ? "yes" : "no — engine only") << "]\n"
         << "      " << info.description << '\n';
    }
  }
}

/// Single traced run through the engine backend (--trace).
void traced_run(const api::CellConfig& cell, std::uint64_t seed) {
  sim::TextTrace text_trace;
  const api::EngineBackend backend(&text_trace);
  std::cout << "(trace of seed " << seed << "; --trace forces a single engine "
            << "run)\n\n";
  const api::RunRecord record = backend.run(cell, seed);
  text_trace.dump(std::cout);
  std::cout << "\nrounds: " << record.rounds
            << ", crashes: " << record.crashes
            << ", messages: " << record.messages_delivered
            << ", bytes: " << record.bytes_delivered << '\n';
}

void print_cell_table(const api::SweepResult& result, bool csv) {
  stats::Table table({"algorithm", "n", "adversary", "backend", "mean rounds",
                      "median", "p99", "max", "mean msgs", "mean crashes"});
  for (const api::CellSummary& cell : result.cells) {
    table.add_row({api::algorithm_info(cell.config.algorithm).name,
                   stats::fmt_int(cell.config.n),
                   api::adversary_info(cell.config.adversary.kind).name,
                   to_string(cell.backend_used),
                   stats::fmt_fixed(cell.rounds.mean, 2),
                   stats::fmt_fixed(cell.rounds.median, 1),
                   stats::fmt_fixed(cell.rounds.p99, 1),
                   stats::fmt_fixed(cell.rounds.max, 0),
                   stats::fmt_fixed(cell.messages.mean, 0),
                   stats::fmt_fixed(cell.crashes.mean, 1)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

void print_churn_cell_table(const api::SweepResult& result, bool csv) {
  stats::Table table({"algorithm", "n", "profile", "backend", "names/round",
                      "throughput", "lat p50", "lat p99", "density",
                      "namespace"});
  for (const api::CellSummary& cell : result.cells) {
    const api::ChurnCellSummary& churn = cell.churn;
    table.add_row({api::algorithm_info(cell.config.algorithm).name,
                   stats::fmt_int(cell.config.n),
                   service::to_string(churn.spec.profile),
                   to_string(cell.backend_used),
                   stats::fmt_fixed(churn.names_per_round.mean, 1),
                   stats::fmt_fixed(churn.throughput_ratio.mean, 4),
                   stats::fmt_fixed(churn.latency_p50.mean, 1),
                   stats::fmt_fixed(churn.latency_p99.mean, 1),
                   stats::fmt_fixed(churn.density.mean, 3),
                   stats::fmt_fixed(churn.namespace_final.mean, 0)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

void print_churn_run_table(const api::CellSummary& cell, bool csv) {
  stats::Table table({"seed", "arrivals", "joined", "departed", "instances",
                      "names/round", "throughput", "lat p50", "lat p99",
                      "density", "namespace"});
  for (const service::ServiceMetrics& run : cell.churn.runs) {
    table.add_row({stats::fmt_int(run.seed), stats::fmt_int(run.arrivals),
                   stats::fmt_int(run.joined), stats::fmt_int(run.departed),
                   stats::fmt_int(run.instances),
                   stats::fmt_fixed(run.names_per_round, 1),
                   stats::fmt_fixed(run.throughput_ratio, 4),
                   stats::fmt_fixed(run.latency.median, 1),
                   stats::fmt_fixed(run.latency.p99, 1),
                   stats::fmt_fixed(run.density_mean, 3),
                   stats::fmt_int(run.namespace_final)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    const api::ChurnCellSummary& churn = cell.churn;
    std::cout << "\nthroughput ratio: mean "
              << stats::fmt_fixed(churn.throughput_ratio.mean, 4)
              << ", rounds-to-name p99: mean "
              << stats::fmt_fixed(churn.latency_p99.mean, 1)
              << ", live-name density: mean "
              << stats::fmt_fixed(churn.density.mean, 3) << "\n";
  }
}

void print_run_table(const api::CellSummary& cell, bool csv) {
  stats::Table table({"seed", "rounds", "crashes", "messages", "bytes"});
  for (const api::RunRecord& record : cell.runs) {
    table.add_row({stats::fmt_int(record.seed), stats::fmt_int(record.rounds),
                   stats::fmt_int(record.crashes),
                   stats::fmt_int(record.messages_delivered),
                   // Fast-sim runs know their exact message count but never
                   // materialize payloads; bytes are absent, not zero.
                   record.bytes_measured
                       ? stats::fmt_int(record.bytes_delivered)
                       : std::string("-")});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << "\nrounds: mean " << stats::fmt_fixed(cell.rounds.mean, 2)
              << ", median " << stats::fmt_fixed(cell.rounds.median, 1)
              << ", max " << stats::fmt_fixed(cell.rounds.max, 0) << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string algorithm = "bil";
  std::string n_list = "64";
  std::uint32_t seeds = 5;
  std::uint64_t seed_base = 1;
  std::string adversary = "none";
  // Numeric knobs that land in uint32 spec fields are parsed through the
  // range-checked add_uint32 path: out-of-range (or negative-looking) input
  // fails with a diagnostic instead of wrapping through a static_cast.
  std::uint32_t crashes = 0;
  std::uint32_t burst_round = 1;
  std::uint32_t horizon = 8;
  std::uint32_t per_round = 2;
  std::uint32_t byzantine = 0;
  std::uint32_t byzantine_rounds = 0;
  std::uint32_t delay = 0;
  std::uint64_t gst = 0;
  std::uint64_t timeout = 0;
  std::string backend = "auto";
  std::string churn;
  std::uint32_t churn_rounds = 4096;
  std::uint32_t churn_arrival_permille = 10;
  std::uint32_t churn_hold_rounds = 0;
  std::uint32_t churn_burst_period = 256;
  std::uint32_t churn_burst_permille = 50;
  std::uint32_t churn_ramp_period = 2048;
  bool churn_warm_start = true;
  std::uint32_t threads = 0;
  std::uint32_t engine_threads = 0;
  bool eager_decide = false;
  bool csv = false;
  bool json = false;
  bool trace = false;
  bool list_algorithms = false;
  bool list_adversaries = false;

  FlagSet flags("bil_run",
                "run the Balls-into-Leaves renaming simulator (PODC 2014)");
  flags.add_string("algorithm", &algorithm,
                   "comma-separated list of " + api::algorithm_catalog());
  flags.add_string("n", &n_list,
                   "comma-separated list of process counts (= names)");
  flags.add_uint32("seeds", &seeds, "independent runs per grid cell");
  flags.add_uint("seed-base", &seed_base, "first seed");
  flags.add_string("adversary", &adversary, api::adversary_catalog());
  flags.add_uint32("crashes", &crashes, "crash budget t (and planned count)");
  flags.add_uint32("burst-round", &burst_round,
                   "round for --adversary=burst (eager start round)");
  flags.add_uint32("horizon", &horizon,
                   "crash-round horizon for --adversary=oblivious");
  flags.add_uint32("per-round", &per_round,
                   "victims per firing round (sandwich/eager/targeted)");
  flags.add_uint32("byzantine", &byzantine,
                   "Byzantine budget f for the byzantine-* adversaries "
                   "(wire-corrupting senders; engine backend only)");
  flags.add_uint32("byzantine-rounds", &byzantine_rounds,
                   "corrupting-round window for the byzantine-* adversaries "
                   "(0 = unbounded; cap the equivocator)");
  flags.add_uint32("delay", &delay,
                   "delay bound d for the asynchronous adversaries: each "
                   "message batch arrives 1..d ticks after the send "
                   "(0 = default 4; d=1 is bit-identical to synchronous; "
                   "implies --adversary=bounded-delay when none is set)");
  flags.add_uint("gst", &gst,
                 "global stabilization tick: delays are adversarial before "
                 "GST, synchronous after (0 = default 8; implies "
                 "--adversary=gst when none is set)");
  flags.add_uint("timeout", &timeout,
                 "on_timeout budget in ticks for the delay adversaries: a "
                 "round whose next delivery is further out fires the "
                 "processes' timeout hook once (0 = off)");
  flags.add_string("backend", &backend,
                   "auto|engine|fast-sim (auto: fast single-view simulator "
                   "for large tree cells, crash-free or under a "
                   "schedule-only crash adversary)");
  flags.add_string("churn", &churn,
                   "long-lived service mode: poisson|bursty|diurnal churn "
                   "profile (each seed runs a full RenamingService horizon "
                   "of overlapping instances with name recycling; requires "
                   "--adversary=none)");
  flags.add_uint32("churn-rounds", &churn_rounds,
                   "service horizon in rounds (--churn)");
  flags.add_uint32("churn-arrival-permille", &churn_arrival_permille,
                   "mean arrivals per round, in permille of n (--churn)");
  flags.add_uint32("churn-hold-rounds", &churn_hold_rounds,
                   "mean lease length in rounds (0 = auto: steady-state "
                   "live population = n)");
  flags.add_uint32("churn-burst-period", &churn_burst_period,
                   "rounds between arrival spikes (--churn=bursty)");
  flags.add_uint32("churn-burst-permille", &churn_burst_permille,
                   "spike size in permille of n (--churn=bursty)");
  flags.add_uint32("churn-ramp-period", &churn_ramp_period,
                   "triangle-wave period in rounds (--churn=diurnal)");
  flags.add_bool("churn-warm-start", &churn_warm_start,
                 "start with a full steady-state population holding names "
                 "(--no-churn-warm-start begins empty)");
  flags.add_uint32("threads", &threads,
                   "sweep thread budget: run workers x engine threads "
                   "(0 = all cores)");
  flags.add_uint32("engine-threads", &engine_threads,
                   "intra-round engine threads per run; results are "
                   "bit-identical for any value (0 = auto: parallel runs "
                   "first, leftover budget to the engine; 1 = serial "
                   "rounds)");
  flags.add_bool("eager-decide", &eager_decide,
                 "decide at leaf arrival instead of at global completion");
  flags.add_bool("csv", &csv, "machine-readable table output");
  flags.add_bool("json", &json, "structured SweepResult JSON output");
  flags.add_bool("trace", &trace, "dump the first run's event trace");
  flags.add_bool("list-algorithms", &list_algorithms,
                 "print the algorithm registry and exit");
  flags.add_bool("list-adversaries", &list_adversaries,
                 "print the adversary registry and exit");

  try {
    if (!flags.parse(argc - 1, argv + 1)) {
      std::cout << flags.usage();
      return 0;
    }
    if (list_algorithms) {
      list_algorithms_table(std::cout);
      return 0;
    }
    if (list_adversaries) {
      list_adversaries_grouped(std::cout);
      return 0;
    }

    api::ExperimentSpec spec;
    spec.algorithms.clear();
    for (const std::string& name : split_csv(algorithm)) {
      spec.algorithms.push_back(api::parse_algorithm(name).algorithm);
    }
    spec.n_values.clear();
    for (const std::string& value : split_csv(n_list)) {
      BIL_REQUIRE(!value.empty() &&
                      value.find_first_not_of("0123456789") == std::string::npos,
                  "--n expects comma-separated integers, got '" + value + "'");
      const std::uint64_t n = std::stoull(value);
      BIL_REQUIRE(n >= 1 && n <= std::numeric_limits<std::uint32_t>::max(),
                  "--n value '" + value + "' is out of range");
      spec.n_values.push_back(static_cast<std::uint32_t>(n));
    }
    // --gst / --delay select their adversary by themselves when the user
    // hasn't picked one: a delay bound means bounded-delay, a stabilization
    // tick means partial synchrony (gst wins when both are given).
    if (adversary == "none") {
      if (gst > 0) {
        adversary = "gst";
      } else if (delay > 0) {
        adversary = "bounded-delay";
      }
    }
    // A budget the chosen kind does not read would vanish silently from
    // the run — reject it instead, naming the flag.
    const api::AdversaryInfo& chosen = api::parse_adversary(adversary);
    const auto require_read = [&chosen](bool given, bool read,
                                        const char* flag) {
      BIL_REQUIRE(!given || read,
                  std::string(flag) + " is not read by adversary '" +
                      chosen.name +
                      "' — drop it or pick an adversary that reads it "
                      "(see --list-adversaries)");
    };
    require_read(crashes != 0, chosen.reads.crashes, "--crashes");
    require_read(byzantine != 0, chosen.reads.byzantine, "--byzantine");
    require_read(byzantine_rounds != 0, chosen.reads.byzantine_rounds,
                 "--byzantine-rounds");
    require_read(delay != 0, chosen.reads.max_delay, "--delay");
    require_read(gst != 0, chosen.reads.gst, "--gst");
    require_read(timeout != 0, chosen.reads.timeout, "--timeout");
    spec.adversaries = {chosen.make(
        api::AdversaryKnobs{.crashes = crashes,
                            .when = burst_round,
                            .horizon = horizon,
                            .per_round = per_round,
                            .byzantine = byzantine,
                            .byzantine_rounds = byzantine_rounds,
                            .max_delay = delay == 0 ? 4 : delay,
                            .gst = gst == 0 ? 8 : gst,
                            .timeout = timeout})};
    BIL_REQUIRE(seeds >= 1, "--seeds must be at least 1");
    BIL_REQUIRE(horizon >= 1, "--horizon must be at least 1");
    spec.seeds = seeds;
    spec.seed_base = seed_base;
    spec.backend = api::parse_backend(backend);
    spec.threads = threads;
    spec.engine_threads = engine_threads;
    spec.termination = eager_decide ? core::TerminationMode::kEagerLeaf
                                    : core::TerminationMode::kGlobal;
    if (!churn.empty()) {
      spec.churn.profile = service::parse_churn_profile(churn);
      BIL_REQUIRE(churn_rounds >= 1, "--churn-rounds must be at least 1");
      spec.churn.horizon_rounds = churn_rounds;
      spec.churn.arrival_permille = churn_arrival_permille;
      spec.churn.hold_rounds = churn_hold_rounds;
      spec.churn.burst_period = churn_burst_period;
      spec.churn.burst_permille = churn_burst_permille;
      spec.churn.ramp_period = churn_ramp_period;
      spec.churn.warm_start = churn_warm_start;
      BIL_REQUIRE(!trace, "--trace traces one-shot runs; drop --churn");
    }
    // Per-seed rows are only printed for single-cell grids; don't retain
    // per-run records (names vectors included) for multi-cell sweeps.
    const bool single_cell =
        spec.algorithms.size() * spec.n_values.size() == 1;
    spec.keep_runs = !json && single_cell;

    const api::SweepRunner runner(spec);
    if (trace) {
      traced_run(runner.cells().front(), seed_base);
      return 0;
    }
    const api::SweepResult result = runner.run();

    if (json) {
      result.write_json(std::cout);
      return 0;
    }
    if (spec.churn.enabled()) {
      if (result.cells.size() == 1) {
        const api::CellSummary& cell = result.cells.front();
        if (!csv) {
          std::cout << api::algorithm_info(cell.config.algorithm).name
                    << ", n=" << cell.config.n << ", churn="
                    << service::to_string(spec.churn.profile) << " over "
                    << spec.churn.horizon_rounds << " rounds, backend="
                    << to_string(cell.backend_used) << "\n\n";
        }
        print_churn_run_table(cell, csv);
      } else {
        if (!csv) {
          std::cout << result.total_runs << " service horizons over "
                    << result.cells.size() << " grid cells, " << seeds
                    << " seeds each\n\n";
        }
        print_churn_cell_table(result, csv);
      }
      return 0;
    }
    if (result.cells.size() == 1) {
      const api::CellSummary& cell = result.cells.front();
      if (!csv) {
        std::cout << api::algorithm_info(cell.config.algorithm).name
                  << ", n=" << cell.config.n << ", adversary=" << adversary
                  << " (t=" << crashes << "), backend="
                  << to_string(cell.backend_used) << "\n\n";
      }
      print_run_table(cell, csv);
    } else {
      if (!csv) {
        std::cout << result.total_runs << " runs over "
                  << result.cells.size() << " grid cells, " << seeds
                  << " seeds each\n\n";
      }
      print_cell_table(result, csv);
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n\n" << flags.usage();
    return 1;
  }
}
