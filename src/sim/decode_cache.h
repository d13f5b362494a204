// Round-scoped decode cache: each unique wire buffer is decoded once per
// round, not once per recipient.
//
// A broadcast to n recipients shares one payload buffer (sim::Envelope holds
// an arena handle), but every recipient used to re-parse it — Θ(n²) decodes
// per round for a broadcast protocol. The engine owns one DecodeCache per
// executor thread, clears each at the start of each round's delivery, and
// stamps the delivering worker's cache into every Envelope it delivers;
// protocol code funnels decoding through decode_cached(), which turns the
// n-1 repeat decodes of a broadcast into pointer-keyed hash hits. (Under
// the parallel executor each worker decodes a buffer at most once — workers
// never share a cache, so no lookup ever synchronizes.)
//
// Determinism argument (docs/perf.md has the long form): decoding is a pure
// function of the payload bytes, and a buffer address is a stable identity
// for those bytes within a round (payloads are immutable and outboxes keep
// them alive until the next send phase). Caching therefore returns exactly
// the value a fresh decode would return — recipients observe bit-identical
// messages, cached or not. The cache is cleared before the first lookup of
// each round, so a recycled allocation address can never alias a previous
// round's entry.
//
// The cache is keyed by buffer address alone, so all users of one engine
// must decode to the same type T — true by construction, since an engine
// runs one protocol. Malformed buffers are remembered as null: the decode
// failure (and its exception cost) is also paid once per buffer.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/types.h"
#include "wire/wire.h"

namespace bil::sim {

class DecodeCache {
 public:
  /// Drops every entry and every registered inbox. The engine calls this at
  /// the start of each round's delivery, before any lookup against that
  /// round's payloads.
  void begin_round() {
    entries_.clear();
    memos_.clear();
  }

  /// Registers a delivery span that several recipients receive unchanged —
  /// the round's shared plan, or one delivery class's assembled inbox (see
  /// sim/engine.h). Only registered spans are eligible for whole-inbox
  /// memoization (get_or_build_memo), each with its own memo: a scratch
  /// span assembled for one recipient lives in a reused arena whose address
  /// is not a stable identity, so it is never registered. The span must
  /// stay alive and unmodified until release_inbox or the next begin_round.
  void register_inbox(std::span<const Envelope> inbox) {
    memos_.push_back(InboxMemo{inbox.data(), inbox.size(), {}});
  }

  /// Unregisters a span and frees what was memoized for it. The engine
  /// calls this once a class's last recipient has received, so the arena
  /// can be reused — possibly at the same address, for another class —
  /// without the old memo ever being served for it.
  void release_inbox(std::span<const Envelope> inbox) {
    const auto it = std::find_if(
        memos_.begin(), memos_.end(), [&](const InboxMemo& memo) {
          return memo.data == inbox.data() && memo.count == inbox.size();
        });
    if (it != memos_.end()) {
      *it = std::move(memos_.back());
      memos_.pop_back();
    }
  }

  /// Returns the decoded form of `payload`, decoding on first sight and
  /// serving hash hits afterwards. Returns nullptr for malformed payloads
  /// (wire::WireError), also memoized. `decode` must be a pure function
  /// span-of-bytes → T.
  template <typename T, typename DecodeFn>
  const T* get_or_decode(const wire::Buffer* payload, DecodeFn&& decode) {
    const auto [it, inserted] = entries_.try_emplace(payload);
    if (inserted) {
      try {
        it->second = std::make_shared<const T>(
            decode(std::span<const std::byte>(*payload)));
      } catch (const wire::WireError&) {
        // Remembered as malformed; the null entry makes the sender look
        // silent to every recipient, exactly as an uncached decode would.
      }
    }
    return static_cast<const T*>(it->second.get());
  }

  /// Memoizes a whole-inbox derived structure (e.g. a label → message
  /// index) for a registered span. Every recipient of that span would
  /// build an identical structure; building it once per span instead of
  /// once per recipient is the plan-level analogue of decode-once payloads.
  /// Returns nullptr when `inbox` is not a registered span (the caller
  /// builds fresh). `build` must be a pure function of the span contents —
  /// the memoized object is then exactly what every recipient would have
  /// built, so sharing it is observation-equivalent.
  template <typename T, typename BuildFn>
  const T* get_or_build_memo(std::span<const Envelope> inbox,
                             BuildFn&& build) {
    InboxMemo* memo = nullptr;
    for (InboxMemo& candidate : memos_) {
      if (candidate.data == inbox.data() && candidate.count == inbox.size()) {
        memo = &candidate;
        break;
      }
    }
    if (memo == nullptr) {
      return nullptr;
    }
    const std::type_index key(typeid(T));
    for (const auto& [type, value] : memo->by_type) {
      if (type == key) {
        return static_cast<const T*>(value.get());
      }
    }
    auto built = std::make_shared<const T>(build(inbox));
    const T* out = built.get();
    memo->by_type.emplace_back(key, std::move(built));
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  /// One registered span and its memo entries, keyed by result type (a
  /// round uses one or two at most — linear scan beats hashing).
  struct InboxMemo {
    const Envelope* data = nullptr;
    std::size_t count = 0;
    std::vector<std::pair<std::type_index, std::shared_ptr<const void>>>
        by_type;
  };

  std::unordered_map<const wire::Buffer*, std::shared_ptr<const void>>
      entries_;
  /// Registered spans: the shared plan plus the live class inboxes (a
  /// bounded handful per worker — linear scan again).
  std::vector<InboxMemo> memos_;
};

/// Decodes an envelope through its engine's cache when delivered by an
/// engine, or directly into `scratch` for envelopes built outside one
/// (tests, handcrafted inboxes). Returns nullptr on malformed input either
/// way, so call sites have one code path.
template <typename T, typename DecodeFn>
const T* decode_cached(const Envelope& envelope, T& scratch,
                       DecodeFn&& decode) {
  if (envelope.cache != nullptr) {
    return envelope.cache->get_or_decode<T>(envelope.payload,
                                            std::forward<DecodeFn>(decode));
  }
  try {
    scratch = decode(envelope.bytes());
  } catch (const wire::WireError&) {
    return nullptr;
  }
  return &scratch;
}

/// Builds (or fetches) a whole-inbox derived structure: memoized once per
/// span when `inbox` is a registered engine span (the shared plan or a
/// delivery class's inbox), built into `scratch` otherwise (single-recipient
/// inboxes, engine-less tests).
template <typename T, typename BuildFn>
const T* round_index(std::span<const Envelope> inbox, T& scratch,
                     BuildFn&& build) {
  DecodeCache* cache = inbox.empty() ? nullptr : inbox.front().cache;
  if (cache != nullptr) {
    if (const T* memo = cache->get_or_build_memo<T>(inbox, build)) {
      return memo;
    }
  }
  scratch = build(inbox);
  return &scratch;
}

}  // namespace bil::sim
