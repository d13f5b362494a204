// Gossip (flooding) renaming — the classical linear-round baseline.
//
// The paper (§2) notes that synchronous wait-free tight renaming can be
// solved by agreeing on the set of participating ids via reliable broadcast
// or consensus, at linear round complexity. This is that algorithm: every
// process floods the set of labels it has heard of for t+1 rounds, then
// decides the rank of its own label in the final set.
//
// Correctness: with at most t crashes in t+1 rounds, at least one round is
// crash-free; in a crash-free round every alive process broadcasts its set
// to everyone alive, so all alive processes end the round with the same
// union — and identical sets stay identical afterwards. All correct
// processes therefore decide ranks in the same set: names are distinct and
// lie in 1..n.
//
// Round complexity: exactly t+1 rounds, independent of the actual number of
// failures — the Θ(n) flavour of wait-freedom (t = n-1) the paper contrasts
// with its own O(log log n) bound.
//
// Cost: every recipient of one inbox would compute the same union of the
// labels it carries, so inbox_union builds it once per delivery span
// through sim::round_index — once for a round's shared plan, once per
// delivery class under crash subsets. Each process then merges that one
// sorted span into `known_`, a sorted duplicate-free vector: O(n) work per
// process per round, on top of one O(n²) union per span.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/process.h"
#include "sim/types.h"

namespace bil::baselines {

/// The sorted, duplicate-free union of the labels carried by every
/// well-formed gossip payload in `inbox`; malformed payloads are skipped,
/// as a silent sender. Payloads need not be sorted. Decodes through
/// sim::decode_cached, so each broadcast buffer is parsed once per round.
[[nodiscard]] std::vector<sim::Label> inbox_union(
    std::span<const sim::Envelope> inbox);

class GossipRenamingProcess final : public sim::ProcessBase {
 public:
  struct Options {
    /// This process's label.
    sim::Label label = 0;
    /// Crash-resilience parameter t; the protocol runs t+1 rounds. For the
    /// wait-free setting use t = n-1.
    std::uint32_t max_crashes = 0;
  };

  explicit GossipRenamingProcess(Options options);

  void on_send(sim::RoundNumber round, sim::Outbox& out) override;
  void on_receive(sim::RoundNumber round,
                  std::span<const sim::Envelope> inbox) override;

 private:
  Options options_;
  /// Every label heard of so far, sorted and duplicate-free.
  std::vector<sim::Label> known_;
};

}  // namespace bil::baselines
