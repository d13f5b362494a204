// E4 — Lemma 4 and Lemma 6: per-node contention decays doubly
// exponentially; after O(log log n) phases every node holds O(log² n) balls
// w.h.p.
//
// Measures bmax(φ) — the paper's "most populated node" — per phase over
// many seeds, and compares against the analysis' thresholds:
//   Lemma 4: bmax(2) <= c·sqrt(n·log n)   (first random split)
//   Lemma 6: bmax(φ) <= c²·log² n for φ = O(log log n)
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/fast_sim_crash.h"
#include "stats/binomial.h"

namespace {

using namespace bil;

void decay_table(std::uint32_t n, std::uint32_t seeds) {
  // Collect bmax per phase across seeds (runs can differ in length; index
  // up to the longest).
  std::vector<std::vector<double>> per_phase_bmax;
  for (std::uint32_t seed = 1; seed <= seeds; ++seed) {
    core::RecordingObserver observer;
    (void)core::run_fast_sim_crash(
        {.n = n, .seed = seed, .observer = &observer}, nullptr);
    const std::vector<core::PhaseSnapshot>& snapshots = observer.snapshots();
    for (std::size_t p = 0; p < snapshots.size(); ++p) {
      if (per_phase_bmax.size() <= p) {
        per_phase_bmax.emplace_back();
      }
      per_phase_bmax[p].push_back(snapshots[p].bmax);
    }
  }
  stats::Table table({"phase", "bmax(mean)", "bmax(max)", "lemma4 bound(c=3)",
                      "lemma6 bound(c=2)"});
  const double lemma4 = stats::lemma4_contention_bound(n, 0, 3.0);
  const double lemma6 = stats::lemma6_contention_bound(n, 2.0);
  for (std::size_t p = 0; p < per_phase_bmax.size(); ++p) {
    const stats::Summary summary = stats::summarize(per_phase_bmax[p]);
    table.add_row({stats::fmt_int(p + 1), stats::fmt_fixed(summary.mean, 1),
                   stats::fmt_fixed(summary.max, 0),
                   p == 0 ? stats::fmt_fixed(lemma4, 0) : "-",
                   stats::fmt_fixed(lemma6, 0)});
  }
  std::cout << "\nn = " << n << " (" << seeds
            << " seeds); bmax(φ) after each phase\n\n";
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::print_banner(
      "E4  bench_contention_decay   [Lemmas 4 and 6]",
      "The most populated node drops from Θ(n) to O(sqrt(n log n)) after one "
      "phase and to O(log² n) within O(log log n) phases.");
  for (std::uint32_t exp : {10u, 12u, 14u, 16u}) {
    decay_table(1u << exp, 20);
  }
  return 0;
}
