#include "report/report.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <locale>
#include <ostream>
#include <sstream>

#include "api/registry.h"
#include "api/sweep.h"
#include "baselines/two_choice.h"
#include "stats/fit.h"
#include "stats/table.h"
#include "util/contract.h"

namespace bil::report {

namespace {

// ---- execution --------------------------------------------------------------

/// Rounds of the parallel two-choice allocator: the paper's §1 contrast
/// point, a constant-round balanced allocation.
constexpr std::uint32_t kTwoChoiceRounds = 3;

SeriesPoint run_two_choice_point(const SeriesSpec& spec, std::uint32_t n) {
  std::vector<double> max_load;
  std::vector<double> colliding;
  std::vector<double> rounds;
  for (std::uint32_t s = 0; s < spec.seeds; ++s) {
    baselines::TwoChoiceOptions options;
    options.balls = n;
    options.bins = n;
    options.rounds = kTwoChoiceRounds;
    options.seed = 1 + s;
    const baselines::TwoChoiceResult result =
        baselines::run_two_choice(options);
    max_load.push_back(result.max_load);
    colliding.push_back(result.colliding_balls);
    rounds.push_back(kTwoChoiceRounds);
  }
  SeriesPoint point;
  point.x = n;
  point.n = n;
  point.backend_used = api::BackendKind::kEngine;  // unused for two-choice
  point.rounds = stats::summarize(rounds);
  point.max_load = stats::summarize(max_load);
  point.colliding = stats::summarize(colliding);
  return point;
}

SeriesPoint run_sweep_point(const SeriesSpec& spec, std::uint32_t n,
                            std::uint32_t f, const RunOptions& options) {
  api::ExperimentSpec sweep;
  sweep.algorithms = {spec.algorithm};
  sweep.n_values = {n};
  sweep.adversaries = {spec.adversary ? spec.adversary(n, f)
                                      : harness::AdversarySpec{}};
  sweep.seeds = spec.seeds;
  sweep.backend = spec.backend;
  sweep.termination = spec.termination;
  sweep.gossip_t = spec.gossip_t ? spec.gossip_t(n) : harness::kWaitFree;
  sweep.threads = options.threads;
  sweep.engine_threads = options.engine_threads;
  sweep.churn = spec.churn;

  api::SweepResult result = api::SweepRunner(std::move(sweep)).run();
  BIL_ENSURE(result.cells.size() == 1, "point spec expanded to one cell");
  const api::CellSummary& cell = result.cells.front();

  SeriesPoint point;
  point.x = spec.f_values.empty() ? n : f;
  point.n = n;
  point.backend_used = cell.backend_used;
  point.rounds = cell.rounds;
  point.total_rounds = cell.total_rounds;
  point.crashes = cell.crashes;
  point.messages = cell.messages;
  point.bytes = cell.bytes;
  point.bytes_measured =
      cell.backend_used != api::BackendKind::kFastSim && !cell.churn.enabled;
  point.churn = cell.churn;
  return point;
}

SeriesResult run_series(const SeriesSpec& spec, const RunOptions& options) {
  if (options.progress != nullptr) {
    *options.progress << "  series " << spec.label << " ("
                      << (spec.f_values.empty() ? spec.n_values.size()
                                                : spec.f_values.size())
                      << " points x " << spec.seeds << " seeds)..."
                      << std::endl;
  }
  SeriesResult result;
  result.spec = spec;
  if (!spec.f_values.empty()) {
    BIL_REQUIRE(spec.n_values.size() == 1,
                "an f-axis series needs exactly one fixed n");
    BIL_REQUIRE(!spec.two_choice,
                "two-choice series sweep n, not failure counts");
    for (std::uint32_t f : spec.f_values) {
      result.points.push_back(
          run_sweep_point(spec, spec.n_values.front(), f, options));
    }
    return result;
  }
  for (std::uint32_t n : spec.n_values) {
    result.points.push_back(spec.two_choice
                                ? run_two_choice_point(spec, n)
                                : run_sweep_point(spec, n, 0, options));
  }
  return result;
}

// ---- claim evaluation -------------------------------------------------------

const SeriesResult& find_series(const PresetReport& report,
                                const std::string& label) {
  for (const SeriesResult& series : report.series) {
    if (series.spec.label == label) {
      return series;
    }
  }
  BIL_REQUIRE(false, "claim references unknown series '" + label + "'");
  throw std::logic_error("unreachable");
}

double metric_value(const SeriesPoint& point, Metric metric) {
  switch (metric) {
    case Metric::kRoundsMean:
      return point.rounds.mean;
    case Metric::kRoundsMax:
      return point.rounds.max;
    case Metric::kBytesPerMessage:
      BIL_REQUIRE(point.bytes_measured && point.messages.mean > 0,
                  "bytes/message needs an engine-backed point");
      return point.bytes.mean / point.messages.mean;
    case Metric::kBroadcastRatio:
      BIL_REQUIRE(point.total_rounds.mean > 0,
                  "broadcast ratio needs a renaming point");
      return point.messages.mean / (static_cast<double>(point.n) *
                                    static_cast<double>(point.n) *
                                    point.total_rounds.mean);
    case Metric::kCrashesMean:
      return point.crashes.mean;
    case Metric::kMaxLoadMax:
      BIL_REQUIRE(point.max_load.count > 0,
                  "max load is a two-choice metric");
      return point.max_load.max;
    case Metric::kChurnThroughputRatio:
      BIL_REQUIRE(point.churn.enabled, "throughput ratio is a churn metric");
      return point.churn.throughput_ratio.mean;
    case Metric::kChurnLatencyP50:
      BIL_REQUIRE(point.churn.enabled,
                  "rounds-to-name p50 is a churn metric");
      return point.churn.latency_p50.mean;
    case Metric::kChurnLatencyP99:
      BIL_REQUIRE(point.churn.enabled,
                  "rounds-to-name p99 is a churn metric");
      return point.churn.latency_p99.mean;
    case Metric::kChurnDensityMean:
      BIL_REQUIRE(point.churn.enabled,
                  "live-name density is a churn metric");
      return point.churn.density.mean;
  }
  BIL_REQUIRE(false, "unhandled metric");
  throw std::logic_error("unreachable");
}

/// True when the point participates in the claim: above the model
/// transform's domain floor (fits over log₂ x / log₂ log₂ x need x > 1
/// resp. > 2) and not excluded by the claim's own min_x.
bool claim_includes(const ClaimSpec& claim, const SeriesPoint& point,
                    double model_floor) {
  return static_cast<double>(point.x) > model_floor &&
         point.x >= claim.min_x;
}

/// The series' (x, metric) pairs the claim considers.
void axis_points(const SeriesResult& series, const ClaimSpec& claim,
                 double model_floor, std::vector<double>* xs,
                 std::vector<double>* ys) {
  for (const SeriesPoint& point : series.points) {
    if (claim_includes(claim, point, model_floor)) {
      xs->push_back(point.x);
      ys->push_back(metric_value(point, claim.metric));
    }
  }
  BIL_REQUIRE(xs->size() >= 2,
              "fit-based claim on series '" + series.spec.label +
                  "' needs at least two axis points with x large enough "
                  "for the model transform");
}

std::string fmt3(double value) { return stats::fmt_fixed(value, 3); }

ClaimResult evaluate_claim(const ClaimSpec& claim,
                           const PresetReport& report) {
  ClaimResult result;
  result.spec = claim;
  const SeriesResult& series = find_series(report, claim.series);

  switch (claim.kind) {
    case ClaimKind::kBestModelLogLog: {
      std::vector<double> xs;
      std::vector<double> ys;
      axis_points(series, claim, 2.0, &xs, &ys);
      const stats::GrowthComparison growth = stats::compare_growth(xs, ys);
      result.pass = growth.best == stats::GrowthModel::kLogLog2 &&
                    growth.loglog2_fit.r_squared >= claim.min_r2;
      result.measured = "R2(loglog)=" + fmt3(growth.loglog2_fit.r_squared) +
                        " vs R2(log)=" + fmt3(growth.log2_fit.r_squared) +
                        ", loglog slope=" + fmt3(growth.loglog2_fit.slope);
      result.threshold =
          "R2(loglog) > R2(log) and R2(loglog) >= " + fmt3(claim.min_r2);
      break;
    }
    case ClaimKind::kLogSlopeBand: {
      std::vector<double> xs;
      std::vector<double> ys;
      axis_points(series, claim, 1.0, &xs, &ys);
      const stats::LinearFit fit = stats::fit_log2(xs, ys);
      result.pass = fit.slope >= claim.lo && fit.slope <= claim.hi &&
                    fit.r_squared >= claim.min_r2;
      result.measured =
          "slope=" + fmt3(fit.slope) + ", R2=" + fmt3(fit.r_squared);
      result.threshold = "slope in [" + fmt3(claim.lo) + ", " +
                         fmt3(claim.hi) + "], R2 >= " + fmt3(claim.min_r2);
      break;
    }
    case ClaimKind::kPowerExponentBand: {
      std::vector<double> xs;
      std::vector<double> ys;
      axis_points(series, claim, 0.0, &xs, &ys);
      const stats::LinearFit fit = stats::fit_power(xs, ys);
      result.pass = fit.slope >= claim.lo && fit.slope <= claim.hi &&
                    fit.r_squared >= claim.min_r2;
      result.measured =
          "exponent=" + fmt3(fit.slope) + ", R2=" + fmt3(fit.r_squared);
      result.threshold = "exponent in [" + fmt3(claim.lo) + ", " +
                         fmt3(claim.hi) + "], R2 >= " + fmt3(claim.min_r2);
      break;
    }
    case ClaimKind::kSlowerThan: {
      const SeriesResult& reference = find_series(report, claim.reference);
      std::vector<double> xs;
      std::vector<double> ys;
      axis_points(series, claim, 1.0, &xs, &ys);
      std::vector<double> ref_xs;
      std::vector<double> ref_ys;
      axis_points(reference, claim, 1.0, &ref_xs, &ref_ys);
      const double slope = stats::fit_log2(xs, ys).slope;
      const double ref_slope = stats::fit_log2(ref_xs, ref_ys).slope;
      result.pass = ref_slope > 0.0 && slope < claim.factor * ref_slope;
      result.measured = "log2 slope " + fmt3(slope) + " vs reference " +
                        fmt3(ref_slope) + " (ratio " +
                        fmt3(ref_slope > 0.0 ? slope / ref_slope
                                             : std::numeric_limits<
                                                   double>::infinity()) +
                        ")";
      result.threshold = "slope < " + fmt3(claim.factor) + " x reference";
      break;
    }
    case ClaimKind::kRatioBound: {
      const SeriesResult& reference = find_series(report, claim.reference);
      result.pass = true;
      std::size_t compared = 0;
      double worst_ratio = 0.0;
      std::uint32_t worst_x = 0;
      for (const SeriesPoint& point : series.points) {
        if (!claim_includes(claim, point, -1.0)) {
          continue;
        }
        const SeriesPoint* ref_point = nullptr;
        if (reference.points.size() == 1) {
          ref_point = &reference.points.front();
        } else {
          for (const SeriesPoint& candidate : reference.points) {
            if (candidate.x == point.x) {
              ref_point = &candidate;
              break;
            }
          }
        }
        if (ref_point == nullptr) {
          continue;  // no shared axis value
        }
        ++compared;
        const double value = metric_value(point, claim.metric);
        const double ref_value = metric_value(*ref_point, claim.metric);
        const double ratio =
            ref_value > 0.0 ? value / ref_value
                            : std::numeric_limits<double>::infinity();
        if (ratio > worst_ratio) {
          worst_ratio = ratio;
          worst_x = point.x;
        }
        if (!(value <= claim.factor * ref_value)) {
          result.pass = false;
        }
      }
      if (compared == 0) {
        result.pass = false;
        result.measured = "no shared axis points with reference";
      } else {
        result.measured = "worst ratio " + fmt3(worst_ratio) + " (at x=" +
                          std::to_string(worst_x) + ", " +
                          std::to_string(compared) + " points)";
      }
      result.threshold = "<= " + fmt3(claim.factor) + " x " + claim.reference;
      break;
    }
    case ClaimKind::kAbsoluteBound: {
      result.pass = true;
      double worst = -std::numeric_limits<double>::infinity();
      for (const SeriesPoint& point : series.points) {
        if (!claim_includes(claim, point, -1.0)) {
          continue;
        }
        worst = std::max(worst, metric_value(point, claim.metric));
      }
      result.pass = worst <= claim.bound;
      result.measured = "worst " + fmt3(worst);
      result.threshold = "<= " + fmt3(claim.bound);
      break;
    }
    case ClaimKind::kEqualsBound: {
      result.pass = true;
      double worst_deviation = 0.0;
      for (const SeriesPoint& point : series.points) {
        if (!claim_includes(claim, point, -1.0)) {
          continue;
        }
        worst_deviation = std::max(
            worst_deviation,
            std::abs(metric_value(point, claim.metric) - claim.bound));
      }
      result.pass = worst_deviation <= claim.tol;
      // No '|' here: this string lands in a markdown table cell.
      result.measured = "worst abs deviation " + fmt3(worst_deviation);
      result.threshold = "= " + fmt3(claim.bound) + " +/- " +
                         stats::fmt_fixed(claim.tol, 9);
      break;
    }
    case ClaimKind::kAlwaysColliding: {
      result.pass = true;
      double min_colliding = std::numeric_limits<double>::infinity();
      for (const SeriesPoint& point : series.points) {
        BIL_REQUIRE(point.colliding.count > 0,
                    "always-colliding needs a two-choice series");
        min_colliding = std::min(min_colliding, point.colliding.min);
      }
      result.pass = min_colliding > 0.0;
      result.measured =
          "min colliding balls over all runs: " + fmt3(min_colliding);
      result.threshold = "> 0 in every run";
      break;
    }
  }
  return result;
}

// ---- JSON -------------------------------------------------------------------

/// Lossless, locale-independent double (same convention as
/// api::SweepResult::write_json: equal values serialize identically).
void write_double(std::ostream& os, double value) {
  std::ostringstream buffer;
  buffer.imbue(std::locale::classic());
  buffer.precision(std::numeric_limits<double>::max_digits10);
  buffer << value;
  os << buffer.str();
}

void write_json_string(std::ostream& os, const std::string& text) {
  os << '"';
  for (char c : text) {
    if (c == '"' || c == '\\') {
      os << '\\';
    }
    os << c;
  }
  os << '"';
}

void write_summary_json(std::ostream& os, const stats::Summary& summary) {
  if (summary.count == 0) {
    os << "null";
    return;
  }
  os << "{\"count\":" << summary.count << ",\"mean\":";
  write_double(os, summary.mean);
  os << ",\"min\":";
  write_double(os, summary.min);
  os << ",\"median\":";
  write_double(os, summary.median);
  os << ",\"max\":";
  write_double(os, summary.max);
  os << '}';
}

void write_point_json(std::ostream& os, const SeriesPoint& point,
                      bool two_choice) {
  os << "{\"x\":" << point.x << ",\"n\":" << point.n;
  if (two_choice) {
    os << ",\"max_load\":";
    write_summary_json(os, point.max_load);
    os << ",\"colliding\":";
    write_summary_json(os, point.colliding);
  } else {
    os << ",\"backend\":\"" << api::to_string(point.backend_used)
       << "\",\"rounds\":";
    write_summary_json(os, point.rounds);
    os << ",\"crashes\":";
    write_summary_json(os, point.crashes);
    os << ",\"messages\":";
    write_summary_json(os, point.messages);
    os << ",\"bytes\":";
    if (point.bytes_measured) {
      write_summary_json(os, point.bytes);
    } else {
      os << "null";
    }
    if (point.churn.enabled) {
      os << ",\"churn\":{\"profile\":\""
         << service::to_string(point.churn.spec.profile)
         << "\",\"horizon_rounds\":" << point.churn.spec.horizon_rounds
         << ",\"names_per_round\":";
      write_summary_json(os, point.churn.names_per_round);
      os << ",\"throughput_ratio\":";
      write_summary_json(os, point.churn.throughput_ratio);
      os << ",\"latency_p50\":";
      write_summary_json(os, point.churn.latency_p50);
      os << ",\"latency_p99\":";
      write_summary_json(os, point.churn.latency_p99);
      os << ",\"density\":";
      write_summary_json(os, point.churn.density);
      os << '}';
    }
  }
  os << '}';
}

void write_preset_json(std::ostream& os, const PresetReport& report) {
  os << "{\"name\":";
  write_json_string(os, report.spec.name);
  os << ",\"title\":";
  write_json_string(os, report.spec.title);
  os << ",\"series\":[";
  for (std::size_t s = 0; s < report.series.size(); ++s) {
    const SeriesResult& series = report.series[s];
    os << (s == 0 ? "" : ",") << "{\"label\":";
    write_json_string(os, series.spec.label);
    os << ",\"points\":[";
    for (std::size_t p = 0; p < series.points.size(); ++p) {
      if (p != 0) {
        os << ',';
      }
      write_point_json(os, series.points[p], series.spec.two_choice);
    }
    os << "]}";
  }
  os << "],\"claims\":[";
  for (std::size_t c = 0; c < report.claims.size(); ++c) {
    const ClaimResult& claim = report.claims[c];
    os << (c == 0 ? "" : ",") << "{\"name\":";
    write_json_string(os, claim.spec.name);
    os << ",\"kind\":\"" << to_string(claim.spec.kind) << "\",\"statement\":";
    write_json_string(os, claim.spec.statement);
    os << ",\"measured\":";
    write_json_string(os, claim.measured);
    os << ",\"threshold\":";
    write_json_string(os, claim.threshold);
    os << ",\"verdict\":\"" << (claim.pass ? "PASS" : "FAIL") << "\"}";
  }
  os << "]}";
}

// ---- markdown ---------------------------------------------------------------

std::string axis_name(const SeriesSpec& spec) {
  return spec.f_values.empty() ? "n" : "f";
}

/// True when the series contributes a curve worth fitting/plotting.
bool plottable(const SeriesResult& series) {
  return series.points.size() >= 2 && !series.spec.two_choice;
}

/// ASCII line chart: mean rounds (y) against the axis values (x, one column
/// block per distinct x in sorted order), one glyph per series.
void write_ascii_plot(const PresetReport& report, std::ostream& os) {
  static const char kGlyphs[] = {'B', 'h', 'r', 'g', 'b', 'e', 'p', 't'};
  std::vector<const SeriesResult*> series;
  for (const SeriesResult& candidate : report.series) {
    if (plottable(candidate)) {
      series.push_back(&candidate);
    }
  }
  if (series.empty()) {
    return;
  }
  std::vector<std::uint32_t> xs;
  double y_max = 0.0;
  for (const SeriesResult* s : series) {
    for (const SeriesPoint& point : s->points) {
      xs.push_back(point.x);
      y_max = std::max(y_max, point.rounds.mean);
    }
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  constexpr int kRows = 14;
  constexpr int kColWidth = 4;
  const int width = static_cast<int>(xs.size()) * kColWidth;
  std::vector<std::string> grid(kRows + 1,
                                std::string(static_cast<std::size_t>(width),
                                            ' '));
  const auto row_of = [&](double y) {
    return kRows - static_cast<int>(std::lround(y / y_max * kRows));
  };
  const auto col_of = [&](std::uint32_t x) {
    const auto it = std::find(xs.begin(), xs.end(), x);
    return static_cast<int>(it - xs.begin()) * kColWidth + 1;
  };
  for (std::size_t s = 0; s < series.size(); ++s) {
    const char glyph = kGlyphs[s % sizeof(kGlyphs)];
    for (const SeriesPoint& point : series[s]->points) {
      const int row = std::clamp(row_of(point.rounds.mean), 0, kRows);
      const int col = col_of(point.x);
      char& cell = grid[static_cast<std::size_t>(row)]
                       [static_cast<std::size_t>(col)];
      cell = cell == ' ' ? glyph : '*';
    }
  }
  os << "```\nmean rounds (y, 0.." << stats::fmt_fixed(y_max, 1)
     << ") vs " << axis_name(series.front()->spec) << " (x, log-spaced)\n";
  for (int row = 0; row <= kRows; ++row) {
    os << '|' << grid[static_cast<std::size_t>(row)] << '\n';
  }
  os << '+' << std::string(static_cast<std::size_t>(width), '-') << '\n'
     << ' ';
  for (std::uint32_t x : xs) {
    std::string label = std::to_string(x);
    if (x >= 1024 && x % 1024 == 0) {
      label = std::to_string(x / 1024) + "k";
    }
    label.resize(kColWidth, ' ');
    os << label;
  }
  os << '\n';
  for (std::size_t s = 0; s < series.size(); ++s) {
    os << (s == 0 ? "  " : "   ") << kGlyphs[s % sizeof(kGlyphs)] << " = "
       << series[s]->spec.label;
  }
  os << "  (* = overlap)\n```\n\n";
}

void write_preset_markdown(const PresetReport& report, std::ostream& os,
                           const MarkdownOptions& options) {
  os << "## " << report.spec.title << " (`" << report.spec.name << "`)\n\n"
     << report.spec.description << "\n\n";

  // Measurements.
  os << "### Measurements\n\n";
  stats::Table table({"series", "axis", "x", "n", "backend", "mean rounds",
                      "median", "max", "mean msgs", "bytes/msg"});
  stats::Table tc_table({"series", "n", "max load (worst)",
                         "colliding balls (mean)", "colliding (min)"});
  stats::Table churn_table({"series", "n", "profile", "backend",
                            "names/round", "throughput", "lat p50", "lat p99",
                            "density", "namespace"});
  for (const SeriesResult& series : report.series) {
    for (const SeriesPoint& point : series.points) {
      if (series.spec.two_choice) {
        tc_table.add_row({series.spec.label, stats::fmt_int(point.n),
                          stats::fmt_fixed(point.max_load.max, 0),
                          stats::fmt_fixed(point.colliding.mean, 1),
                          stats::fmt_fixed(point.colliding.min, 0)});
        continue;
      }
      if (point.churn.enabled) {
        churn_table.add_row(
            {series.spec.label, stats::fmt_int(point.n),
             service::to_string(point.churn.spec.profile),
             api::to_string(point.backend_used),
             stats::fmt_fixed(point.churn.names_per_round.mean, 1),
             stats::fmt_fixed(point.churn.throughput_ratio.mean, 4),
             stats::fmt_fixed(point.churn.latency_p50.mean, 1),
             stats::fmt_fixed(point.churn.latency_p99.mean, 1),
             stats::fmt_fixed(point.churn.density.mean, 3),
             stats::fmt_fixed(point.churn.namespace_final.mean, 0)});
        continue;
      }
      const bool has_traffic =
          point.bytes_measured && point.messages.mean > 0;
      table.add_row(
          {series.spec.label, axis_name(series.spec),
           stats::fmt_int(point.x), stats::fmt_int(point.n),
           api::to_string(point.backend_used),
           stats::fmt_fixed(point.rounds.mean, 2),
           stats::fmt_fixed(point.rounds.median, 1),
           stats::fmt_fixed(point.rounds.max, 0),
           stats::fmt_fixed(point.messages.mean, 0),
           has_traffic
               ? stats::fmt_fixed(point.bytes.mean / point.messages.mean, 1)
               : std::string("-")});
    }
  }
  std::ostringstream rendered;
  if (table.rows() > 0) {
    table.print(rendered);
  }
  if (tc_table.rows() > 0) {
    if (table.rows() > 0) {
      rendered << '\n';
    }
    tc_table.print(rendered);
  }
  if (churn_table.rows() > 0) {
    if (table.rows() > 0 || tc_table.rows() > 0) {
      rendered << '\n';
    }
    churn_table.print(rendered);
  }
  os << "```\n" << rendered.str() << "```\n\n";

  // Model fits for every multi-point renaming series.
  bool any_fit = false;
  stats::Table fits({"series", "a*log2(x)+b", "R2", "a*log2(log2 x)+b",
                     "R2", "best model"});
  for (const SeriesResult& series : report.series) {
    if (!plottable(series)) {
      continue;
    }
    std::vector<double> xs;
    std::vector<double> ys;
    for (const SeriesPoint& point : series.points) {
      if (point.x > 2) {
        xs.push_back(point.x);
        ys.push_back(point.rounds.mean);
      }
    }
    if (xs.size() < 2) {
      continue;
    }
    const stats::GrowthComparison growth = stats::compare_growth(xs, ys);
    fits.add_row({series.spec.label,
                  fmt3(growth.log2_fit.slope) + "x + " +
                      stats::fmt_fixed(growth.log2_fit.intercept, 2),
                  stats::fmt_fixed(growth.log2_fit.r_squared, 4),
                  fmt3(growth.loglog2_fit.slope) + "x + " +
                      stats::fmt_fixed(growth.loglog2_fit.intercept, 2),
                  stats::fmt_fixed(growth.loglog2_fit.r_squared, 4),
                  stats::to_string(growth.best)});
    any_fit = true;
  }
  if (any_fit) {
    std::ostringstream fit_rendered;
    fits.print(fit_rendered);
    os << "### Model fits (rounds vs axis)\n\n```\n" << fit_rendered.str()
       << "```\n\n";
  }

  // Plots.
  bool any_plot = false;
  for (const SeriesResult& series : report.series) {
    any_plot = any_plot || plottable(series);
  }
  if (any_plot) {
    write_ascii_plot(report, os);
    if (options.svg_links) {
      os << "![" << report.spec.name << "](" << options.svg_rel_dir << '/'
         << report.spec.name << ".svg)\n\n";
    }
  }

  // Claims.
  os << "### Claims\n\n"
     << "| claim | statement | measured | threshold | verdict |\n"
     << "|---|---|---|---|---|\n";
  for (const ClaimResult& claim : report.claims) {
    os << "| `" << claim.spec.name << "` | " << claim.spec.statement << " | "
       << claim.measured << " | " << claim.threshold << " | "
       << (claim.pass ? "**PASS**" : "**FAIL**") << " |\n";
  }
  os << '\n';
}

// ---- SVG --------------------------------------------------------------------

struct Rgb {
  int r, g, b;
};

/// Categorical palette (distinct at small sizes on white).
constexpr Rgb kPalette[] = {{31, 119, 180}, {214, 39, 40},  {44, 160, 44},
                            {148, 103, 189}, {255, 127, 14}, {140, 86, 75},
                            {23, 190, 207},  {127, 127, 127}};

std::string rgb(const Rgb& c) {
  std::ostringstream os;
  os << "rgb(" << c.r << ',' << c.g << ',' << c.b << ')';
  return os.str();
}

void write_preset_svg(const PresetReport& report, std::ostream& os) {
  std::vector<const SeriesResult*> series;
  for (const SeriesResult& candidate : report.series) {
    if (plottable(candidate)) {
      series.push_back(&candidate);
    }
  }
  double x_min = std::numeric_limits<double>::infinity();
  double x_max = 0.0;
  double y_max = 0.0;
  for (const SeriesResult* s : series) {
    for (const SeriesPoint& point : s->points) {
      x_min = std::min(x_min, static_cast<double>(point.x));
      x_max = std::max(x_max, static_cast<double>(point.x));
      y_max = std::max(y_max, point.rounds.mean);
    }
  }
  const double log_min = std::log2(std::max(1.0, x_min));
  const double log_max = std::log2(std::max(2.0, x_max));
  constexpr double kWidth = 640.0;
  constexpr double kHeight = 400.0;
  constexpr double kLeft = 56.0;
  constexpr double kRight = 200.0;
  constexpr double kTop = 32.0;
  constexpr double kBottom = 48.0;
  const double plot_w = kWidth - kLeft - kRight;
  const double plot_h = kHeight - kTop - kBottom;
  const auto sx = [&](double x) {
    const double t = log_max > log_min
                         ? (std::log2(x) - log_min) / (log_max - log_min)
                         : 0.5;
    return kLeft + t * plot_w;
  };
  const auto sy = [&](double y) {
    return kTop + (1.0 - (y_max > 0.0 ? y / y_max : 0.0)) * plot_h;
  };

  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << kWidth
     << "\" height=\"" << kHeight << "\" viewBox=\"0 0 " << kWidth << ' '
     << kHeight << "\" font-family=\"sans-serif\" font-size=\"12\">\n"
     << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n"
     << "<text x=\"" << kLeft << "\" y=\"20\" font-size=\"14\">"
     << report.spec.title << " — mean rounds vs "
     << axis_name(series.front()->spec) << " (log scale)</text>\n";

  // Axes + horizontal gridlines at quarter marks.
  os << "<line x1=\"" << kLeft << "\" y1=\"" << kTop + plot_h << "\" x2=\""
     << kLeft + plot_w << "\" y2=\"" << kTop + plot_h
     << "\" stroke=\"black\"/>\n"
     << "<line x1=\"" << kLeft << "\" y1=\"" << kTop << "\" x2=\"" << kLeft
     << "\" y2=\"" << kTop + plot_h << "\" stroke=\"black\"/>\n";
  for (int tick = 0; tick <= 4; ++tick) {
    const double y_value = y_max * tick / 4.0;
    const double y = sy(y_value);
    os << "<line x1=\"" << kLeft << "\" y1=\"" << y << "\" x2=\""
       << kLeft + plot_w << "\" y2=\"" << y
       << "\" stroke=\"#dddddd\"/>\n"
       << "<text x=\"" << kLeft - 8 << "\" y=\"" << y + 4
       << "\" text-anchor=\"end\">" << stats::fmt_fixed(y_value, 0)
       << "</text>\n";
  }
  // X tick per distinct axis value.
  std::vector<std::uint32_t> xs;
  for (const SeriesResult* s : series) {
    for (const SeriesPoint& point : s->points) {
      xs.push_back(point.x);
    }
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  for (std::uint32_t x : xs) {
    const double px = sx(x);
    std::string label = std::to_string(x);
    if (x >= 1024 && x % 1024 == 0) {
      label = std::to_string(x / 1024) + "k";
    }
    os << "<line x1=\"" << px << "\" y1=\"" << kTop + plot_h << "\" x2=\""
       << px << "\" y2=\"" << kTop + plot_h + 5 << "\" stroke=\"black\"/>\n"
       << "<text x=\"" << px << "\" y=\"" << kTop + plot_h + 20
       << "\" text-anchor=\"middle\">" << label << "</text>\n";
  }

  for (std::size_t s = 0; s < series.size(); ++s) {
    const std::string color =
        rgb(kPalette[s % (sizeof(kPalette) / sizeof(kPalette[0]))]);
    os << "<polyline fill=\"none\" stroke=\"" << color
       << "\" stroke-width=\"2\" points=\"";
    for (const SeriesPoint& point : series[s]->points) {
      os << sx(point.x) << ',' << sy(point.rounds.mean) << ' ';
    }
    os << "\"/>\n";
    for (const SeriesPoint& point : series[s]->points) {
      os << "<circle cx=\"" << sx(point.x) << "\" cy=\""
         << sy(point.rounds.mean) << "\" r=\"3\" fill=\"" << color
         << "\"/>\n";
    }
    const double legend_y = kTop + 16.0 * static_cast<double>(s);
    os << "<rect x=\"" << kLeft + plot_w + 16 << "\" y=\"" << legend_y
       << "\" width=\"12\" height=\"12\" fill=\"" << color << "\"/>\n"
       << "<text x=\"" << kLeft + plot_w + 34 << "\" y=\"" << legend_y + 10
       << "\">" << series[s]->spec.label << "</text>\n";
  }
  os << "</svg>\n";
}

}  // namespace

// ---- public API -------------------------------------------------------------

bool PresetReport::all_pass() const noexcept {
  for (const ClaimResult& claim : claims) {
    if (!claim.pass) {
      return false;
    }
  }
  return true;
}

bool Report::all_pass() const noexcept {
  for (const PresetReport& preset : presets) {
    if (!preset.all_pass()) {
      return false;
    }
  }
  return true;
}

std::size_t Report::claim_count() const noexcept {
  std::size_t count = 0;
  for (const PresetReport& preset : presets) {
    count += preset.claims.size();
  }
  return count;
}

std::size_t Report::pass_count() const noexcept {
  std::size_t count = 0;
  for (const PresetReport& preset : presets) {
    for (const ClaimResult& claim : preset.claims) {
      count += claim.pass ? 1 : 0;
    }
  }
  return count;
}

void Report::write_json(std::ostream& os) const {
  os << "{\"presets\":[";
  for (std::size_t p = 0; p < presets.size(); ++p) {
    if (p != 0) {
      os << ',';
    }
    write_preset_json(os, presets[p]);
  }
  os << "],\"claims\":" << claim_count() << ",\"passed\":" << pass_count()
     << ",\"all_pass\":" << (all_pass() ? "true" : "false") << "}\n";
}

PresetReport run_preset(const PresetSpec& preset, const RunOptions& options) {
  if (options.progress != nullptr) {
    *options.progress << "[preset " << preset.name << "]" << std::endl;
  }
  PresetReport report;
  report.spec = preset;
  for (const SeriesSpec& series : preset.series) {
    report.series.push_back(run_series(series, options));
  }
  for (const ClaimSpec& claim : preset.claims) {
    report.claims.push_back(evaluate_claim(claim, report));
  }
  return report;
}

Report run_presets(const std::vector<std::string>& names,
                   const RunOptions& options) {
  BIL_REQUIRE(!names.empty(), "no presets requested");
  std::vector<const PresetSpec*> selected;
  for (const std::string& name : names) {
    if (name == "all") {
      for (const PresetSpec& preset : preset_registry()) {
        if (preset.name != "ci") {
          selected.push_back(&preset);
        }
      }
    } else {
      selected.push_back(&find_preset(name));
    }
  }
  Report report;
  for (const PresetSpec* preset : selected) {
    report.presets.push_back(run_preset(*preset, options));
  }
  return report;
}

void write_markdown(const Report& report, std::ostream& os,
                    const MarkdownOptions& options) {
  os << "# Paper-claims report\n\n"
     << "> Generated by `" << options.command_line << "` — do **not** edit "
     << "by hand.\n"
     << "> Seeds are fixed in the preset registry "
     << "(`src/report/presets.cpp`) and every layer below the report is "
     << "deterministic in its spec, so regenerating on the same platform "
     << "reproduces this file byte-for-byte.\n\n"
     << "**Verdict: " << report.pass_count() << "/" << report.claim_count()
     << " claims PASS"
     << (report.all_pass() ? "" : " — ATTENTION, failures below") << ".**\n\n";

  os << "| preset | claim | verdict |\n|---|---|---|\n";
  for (const PresetReport& preset : report.presets) {
    for (const ClaimResult& claim : preset.claims) {
      os << "| `" << preset.spec.name << "` | `" << claim.spec.name << "` | "
         << (claim.pass ? "PASS" : "**FAIL**") << " |\n";
    }
  }
  os << '\n';
  for (const PresetReport& preset : report.presets) {
    write_preset_markdown(preset, os, options);
  }
}

std::vector<std::string> write_svgs(const Report& report,
                                    const std::string& dir) {
  std::vector<std::string> written;
  std::filesystem::create_directories(dir);
  for (const PresetReport& preset : report.presets) {
    bool any_plot = false;
    for (const SeriesResult& series : preset.series) {
      any_plot = any_plot || plottable(series);
    }
    if (!any_plot) {
      continue;
    }
    const std::string name = preset.spec.name + ".svg";
    std::ofstream file(std::filesystem::path(dir) / name);
    BIL_REQUIRE(file.good(), "cannot open SVG output file in " + dir);
    write_preset_svg(preset, file);
    written.push_back(name);
  }
  return written;
}

}  // namespace bil::report
