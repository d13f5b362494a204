#include "baselines/gossip.h"

#include <algorithm>
#include <functional>
#include <iterator>

#include "sim/decode_cache.h"
#include "wire/wire.h"

namespace bil::baselines {

namespace {
wire::Buffer encode_known(const std::vector<sim::Label>& known) {
  // Exact size (count prefix + per-label varints): gossip payloads carry up
  // to n labels, and the old 4-bytes-per-label guess both over-reserved for
  // small labels and forced growth reallocation for >2^28 ones.
  std::size_t bytes = wire::varint_size(known.size());
  for (sim::Label label : known) {
    bytes += wire::varint_size(label);
  }
  wire::Writer writer(bytes);
  writer.seq(known, [](wire::Writer& w, sim::Label label) { w.varint(label); });
  return std::move(writer).take();
}

std::vector<sim::Label> decode_known(std::span<const std::byte> bytes) {
  wire::Reader reader(bytes);
  auto labels =
      reader.seq([](wire::Reader& r) -> sim::Label { return r.varint(); });
  reader.expect_done();
  return labels;
}
}  // namespace

std::vector<sim::Label> inbox_union(std::span<const sim::Envelope> inbox) {
  std::vector<sim::Label> heard;
  std::vector<sim::Label> merged;
  std::vector<sim::Label> scratch;
  for (const sim::Envelope& envelope : inbox) {
    const std::vector<sim::Label>* labels =
        sim::decode_cached(envelope, scratch, &decode_known);
    if (labels == nullptr) {
      // Malformed traffic cannot arise from crash faults; skip defensively.
      continue;
    }
    // Honest payloads are strictly increasing (encode_known walks the sorted
    // known_); anything else is normalized before the merge.
    if (std::adjacent_find(labels->begin(), labels->end(),
                           std::greater_equal<>()) != labels->end()) {
      scratch = *labels;
      std::sort(scratch.begin(), scratch.end());
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
      labels = &scratch;
    }
    merged.clear();
    std::set_union(heard.begin(), heard.end(), labels->begin(), labels->end(),
                   std::back_inserter(merged));
    heard.swap(merged);
  }
  return heard;
}

GossipRenamingProcess::GossipRenamingProcess(Options options)
    : options_(options), known_{options.label} {}

void GossipRenamingProcess::on_send(sim::RoundNumber /*round*/,
                                    sim::Outbox& out) {
  out.broadcast(encode_known(known_));
}

void GossipRenamingProcess::on_receive(sim::RoundNumber round,
                                       std::span<const sim::Envelope> inbox) {
  // Every recipient of a shared or class inbox would build the same union;
  // round_index builds it once per span and each process merges the result.
  std::vector<sim::Label> scratch;
  const std::vector<sim::Label>& heard =
      *sim::round_index(inbox, scratch, &inbox_union);
  std::vector<sim::Label> merged;
  merged.reserve(known_.size() + heard.size());
  std::set_union(known_.begin(), known_.end(), heard.begin(), heard.end(),
                 std::back_inserter(merged));
  known_.swap(merged);
  if (round == options_.max_crashes) {  // rounds 0..t executed: t+1 rounds
    const auto own =
        std::lower_bound(known_.begin(), known_.end(), options_.label);
    decide(static_cast<std::uint64_t>(own - known_.begin()) + 1);
    halt();
  }
}

}  // namespace bil::baselines
