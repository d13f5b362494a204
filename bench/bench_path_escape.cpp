// E5 — §5.2 (Lemmas 7–10): balls escape every root→leaf-parent path at a
// constant rate — at least a constant fraction of a path's balls leave it
// every two phases, so paths empty within O(log M) phases of reaching
// population M.
//
// Measures the worst path population (max over leaves of the ball count on
// the inner nodes of its root path) per phase, plus the per-two-phase
// escape ratio of the *global* inner-ball population.
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/fast_sim_crash.h"

namespace {

using namespace bil;

void escape_table(std::uint32_t n, std::uint32_t seeds) {
  std::vector<std::vector<double>> path_load;   // [phase][seed]
  std::vector<std::vector<double>> inner_balls; // [phase][seed]
  for (std::uint32_t seed = 1; seed <= seeds; ++seed) {
    core::RecordingObserver observer;
    (void)core::run_fast_sim_crash(
        {.n = n, .seed = seed, .observer = &observer}, nullptr);
    const std::vector<core::PhaseSnapshot>& snapshots = observer.snapshots();
    for (std::size_t p = 0; p < snapshots.size(); ++p) {
      if (path_load.size() <= p) {
        path_load.emplace_back();
        inner_balls.emplace_back();
      }
      path_load[p].push_back(snapshots[p].max_path_load);
      inner_balls[p].push_back(snapshots[p].balls_inner);
    }
  }
  stats::Table table({"phase", "worst path load (mean)", "(max)",
                      "inner balls (mean)", "escape ratio vs 2 phases ago"});
  for (std::size_t p = 0; p < path_load.size(); ++p) {
    const stats::Summary load = stats::summarize(path_load[p]);
    const stats::Summary inner = stats::summarize(inner_balls[p]);
    std::string ratio = "-";
    if (p >= 2) {
      const stats::Summary before = stats::summarize(inner_balls[p - 2]);
      if (before.mean > 0) {
        ratio = stats::fmt_fixed(1.0 - inner.mean / before.mean, 3);
      }
    }
    table.add_row({stats::fmt_int(p + 1), stats::fmt_fixed(load.mean, 1),
                   stats::fmt_fixed(load.max, 0),
                   stats::fmt_fixed(inner.mean, 1), ratio});
  }
  std::cout << "\nn = " << n << " (" << seeds << " seeds)\n\n";
  table.print(std::cout);
  std::cout << "\nLemma 9 expectation: the escape ratio column stays bounded "
               "away from 0\n(a constant fraction escapes each two phases) "
               "until the paths drain completely.\n";
}

}  // namespace

int main() {
  bench::print_banner(
      "E5  bench_path_escape   [§5.2, Lemmas 7-10]",
      "Every root-to-leaf-parent path loses a constant fraction of its balls "
      "per two phases, so all paths empty in O(log M) further phases.");
  for (std::uint32_t exp : {12u, 14u, 16u}) {
    escape_table(1u << exp, 20);
  }
  return 0;
}
