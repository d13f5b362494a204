// Layer probes every traced run takes: small fixed calls into the tree,
// wire and util layers, timed from outside.
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "core/messages.h"
#include "tree/local_view.h"
#include "tree/shape.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace bilbench {

namespace {

/// Keeps probe results observable so the timed calls cannot be elided.
volatile std::uint64_t g_sink = 0;

void probe_shape(LayerStats& stats, std::uint32_t n) {
  for (int rep = 0; rep < 15; ++rep) {
    const std::int64_t start = now_ns();
    const auto shape = bil::tree::TreeShape::make(n);
    stats.shape_build_ms.add(seconds_between(start, now_ns()) * 1e3);
    g_sink = g_sink + shape->num_nodes();
  }
}

/// A view with every ball part-way down: each ball descends toward a random
/// leaf, stopping where capacity runs out, as after a phase's path round.
void probe_ordered_balls(LayerStats& stats, std::uint32_t n) {
  bil::tree::LocalTreeView view(bil::tree::TreeShape::make(n));
  std::vector<bil::sim::Label> labels(n);
  std::iota(labels.begin(), labels.end(), bil::sim::Label{0});
  view.insert_all_at_root(labels);
  bil::Rng rng(n);
  for (const bil::sim::Label ball : labels) {
    (void)view.descend_toward(
        ball, view.shape().leaf_at(static_cast<std::uint32_t>(rng.below(n))));
  }
  for (int rep = 0; rep < 200; ++rep) {
    const std::int64_t start = now_ns();
    const std::span<const bil::sim::Label> order = view.ordered_balls();
    stats.ordered_balls_us.add(seconds_between(start, now_ns()) * 1e6);
    g_sink = g_sink + order.front();
  }
}

void probe_path_roundtrip(LayerStats& stats, std::uint32_t n) {
  constexpr int kPerSample = 20000;
  bil::Rng rng(7);
  for (int rep = 0; rep < 9; ++rep) {
    const std::int64_t start = now_ns();
    for (int i = 0; i < kPerSample; ++i) {
      const bil::core::PathMsg msg{
          .label = rng.below(n),
          .start = static_cast<bil::tree::NodeId>(rng.below(n)),
          .target = static_cast<bil::tree::NodeId>(rng.below(2 * n - 1))};
      const bil::wire::Buffer bytes = bil::core::encode_message(msg);
      const bil::core::Message decoded = bil::core::decode_message(bytes);
      g_sink = g_sink + std::get<bil::core::PathMsg>(decoded).target;
    }
    stats.path_roundtrip_ns.add(seconds_between(start, now_ns()) * 1e9 /
                                kPerSample);
  }
}

void probe_pool_fanout(LayerStats& stats, std::uint32_t width) {
  bil::util::ThreadPool pool(width);
  const auto noop = [](std::uint32_t, std::size_t, std::size_t) {};
  for (int rep = 0; rep < 2000; ++rep) {
    const std::int64_t start = now_ns();
    pool.parallel_chunks(width, noop);
    stats.pool_fanout_us.add(seconds_between(start, now_ns()) * 1e6);
  }
}

}  // namespace

void probe_common(LayerStats& stats, Scale scale, std::uint32_t width) {
  const bool full = scale == Scale::kFull;
  probe_shape(stats, full ? 1u << 16 : 256);
  probe_ordered_balls(stats, full ? 4096 : 256);
  probe_path_roundtrip(stats, full ? 4096 : 256);
  probe_pool_fanout(stats, width);
}

}  // namespace bilbench
