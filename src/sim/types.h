// Core identifier types and message containers for the synchronous
// message-passing simulator (paper §3: n processes, fully connected network,
// lock-step rounds, up to t < n crash failures).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "wire/wire.h"

namespace bil::sim {

/// Dense process index in [0, n). This is the simulator's transport address,
/// not the renaming input: algorithms receive a separate Label drawn from an
/// unbounded namespace (paper §3, "each process has a unique id, originally
/// known only to itself").
using ProcessId = std::uint32_t;

/// Sentinel for "no process" (used by broadcast outbox entries).
inline constexpr ProcessId kNoProcess = static_cast<ProcessId>(-1);

/// Original identifier from the unbounded namespace.
using Label = std::uint64_t;

/// Lock-step round counter. Round 0 is the first communication round.
using RoundNumber = std::uint32_t;

class DecodeCache;

/// Round-scoped store of immutable encoded payloads.
///
/// Every send used to wrap its buffer in a std::make_shared<const
/// wire::Buffer> — one control-block allocation per message plus atomic
/// refcount traffic on every Envelope copy (a broadcast's payload is copied
/// into the shared plan and again into every custom inbox that embeds it).
/// The arena replaces ownership-by-refcount with ownership-by-scope: each
/// Outbox interns its payloads into its own arena, messages and envelopes
/// carry plain `const wire::Buffer*` handles, and reset() recycles the slots
/// when the outbox is cleared for the next round.
///
/// Slots are individually heap-allocated buffers behind a vector of owning
/// pointers, so handles stay valid as later sends grow the arena, and an
/// arena that never receives a payload owns no memory at all. Both matter
/// because the engine holds one outbox per process, a dead process's
/// included. A std::deque, by contrast, allocates a 512-byte node and its
/// map on construction.
///
/// Lifetime contract (unchanged from the shared_ptr design, now explicit): a
/// payload handle is valid from next_slot()/intern() until the owning
/// outbox's next clear(), i.e. through adversary inspection and the whole
/// delivery round. Nothing may retain a handle across rounds — the
/// round-scoped DecodeCache is cleared before each round's first lookup for
/// exactly this reason.
class PayloadArena {
 public:
  /// The single way into the arena: returns the next slot at its
  /// round-stable address, empty but keeping the capacity its previous
  /// round's payload left behind. Encoding straight into it (see
  /// core::encode_message_into) makes a steady-state send allocation-free.
  wire::Buffer& next_slot() {
    if (used_ == slots_.size()) {
      slots_.push_back(std::make_unique<wire::Buffer>());
    }
    wire::Buffer& slot = *slots_[used_++];
    slot.clear();
    return slot;
  }

  /// Moves an already-encoded `payload` into the next slot (releasing that
  /// slot's previous allocation) and returns its handle.
  const wire::Buffer* intern(wire::Buffer&& payload) {
    wire::Buffer& slot = next_slot();
    slot = std::move(payload);
    return &slot;
  }

  /// Marks every slot reusable. Outstanding handles become invalid.
  void reset() noexcept { used_ = 0; }

  [[nodiscard]] std::size_t size() const noexcept { return used_; }

 private:
  std::vector<std::unique_ptr<wire::Buffer>> slots_;
  std::size_t used_ = 0;
};

/// A message as seen by its recipient.
struct Envelope {
  ProcessId from = kNoProcess;
  /// Borrowed immutable payload, owned by the sender's outbox arena: a
  /// broadcast to n recipients shares one buffer rather than copying it n
  /// times. Valid for the duration of the delivery round (see PayloadArena).
  const wire::Buffer* payload = nullptr;
  /// Round-scoped decode cache of the delivering engine (see
  /// sim/decode_cache.h); null for envelopes built outside an engine.
  /// Recipients decode through sim::decode_cached so each unique buffer is
  /// parsed once per round instead of once per recipient.
  DecodeCache* cache = nullptr;

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return *payload;
  }
};

/// One logical send emitted by a process during a round.
struct OutboundMessage {
  bool broadcast = false;
  /// Meaningful only when !broadcast.
  ProcessId to = kNoProcess;
  /// Arena handle; same lifetime as Envelope::payload.
  const wire::Buffer* payload = nullptr;
};

/// Collects the messages a process emits in one round. The engine clears and
/// hands a fresh outbox to each alive process at the start of every round.
/// Each outbox owns the arena its payloads live in, so concurrent senders
/// (the engine's parallel send fan-out) never contend on a shared allocator.
class Outbox {
 public:
  /// Sends `payload` to every process, including the sender itself (the
  /// paper's balls count themselves in their own local views, so loopback
  /// delivery keeps the algorithms symmetric).
  void broadcast(wire::Buffer payload) {
    broadcast_slot() = std::move(payload);
  }

  /// broadcast() for callers that encode in place: records the broadcast
  /// and returns its payload slot (empty, capacity kept; see
  /// PayloadArena::next_slot) for the caller to fill before the round's
  /// adversary phase.
  [[nodiscard]] wire::Buffer& broadcast_slot() {
    wire::Buffer& slot = arena_.next_slot();
    messages_.push_back(OutboundMessage{
        .broadcast = true, .to = kNoProcess, .payload = &slot});
    return slot;
  }

  /// Unicast to a single process.
  void send(ProcessId to, wire::Buffer payload) {
    messages_.push_back(OutboundMessage{
        .broadcast = false,
        .to = to,
        .payload = arena_.intern(std::move(payload))});
  }

  [[nodiscard]] std::span<const OutboundMessage> messages() const noexcept {
    return messages_;
  }
  [[nodiscard]] bool empty() const noexcept { return messages_.empty(); }

  /// Drops the round's messages and recycles their payload slots. Handles
  /// obtained from messages() are invalid afterwards.
  void clear() noexcept {
    messages_.clear();
    arena_.reset();
  }

 private:
  std::vector<OutboundMessage> messages_;
  PayloadArena arena_;
};

}  // namespace bil::sim
