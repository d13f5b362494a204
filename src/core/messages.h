// Wire messages of the Balls-into-Leaves protocol family.
//
// One phase of Algorithm 1 exchanges two broadcasts per ball:
//   round 1:  Path      ⟨b_i, path_i⟩   (line 11)
//   round 2:  Position  ⟨b_i, CurrentNode(b_i)⟩  (line 22)
// preceded by one Init broadcast ⟨b_i⟩ (line 1).
//
// A candidate path is a contiguous downward walk in a tree whose shape every
// process derives identically from n, so the node sequence is fully
// determined by its endpoints: we encode (start, target) instead of the
// whole node list. This is semantically the paper's path message at
// O(log log n)-competitive size.
#pragma once

#include <cstddef>
#include <span>
#include <variant>

#include "sim/types.h"
#include "tree/shape.h"
#include "wire/wire.h"

namespace bil::core {

/// Line 1: ⟨b_i⟩ — announce the ball's label.
struct InitMsg {
  sim::Label label = 0;

  bool operator==(const InitMsg&) const = default;
};

/// Line 11: ⟨b_i, path_i⟩ — the candidate path from the ball's current node
/// (`start`) to a descendant (`target`; a leaf under every policy except the
/// one-level halving baseline).
struct PathMsg {
  sim::Label label = 0;
  tree::NodeId start = tree::kNoNode;
  tree::NodeId target = tree::kNoNode;

  bool operator==(const PathMsg&) const = default;
};

/// Line 22: ⟨b_i, CurrentNode(b_i)⟩ — position synchronization.
struct PositionMsg {
  sim::Label label = 0;
  tree::NodeId node = tree::kNoNode;

  bool operator==(const PositionMsg&) const = default;
};

using Message = std::variant<InitMsg, PathMsg, PositionMsg>;

/// Exact encoded sizes (type byte + varints) of the protocol messages. The
/// per-phase broadcasts — Path in round 1, Position in round 2 — are the
/// encode hot path (one per alive ball per round), so encode_message_into
/// reserves exactly this much instead of a guessed constant: at most one
/// right-sized allocation per message, no growth reallocation at any n or
/// label magnitude.
[[nodiscard]] constexpr std::size_t encoded_size(const InitMsg& msg) noexcept {
  return 1 + wire::varint_size(msg.label);
}
[[nodiscard]] constexpr std::size_t encoded_size(const PathMsg& msg) noexcept {
  return 1 + wire::varint_size(msg.label) + wire::varint_size(msg.start) +
         wire::varint_size(msg.target);
}
[[nodiscard]] constexpr std::size_t encoded_size(
    const PositionMsg& msg) noexcept {
  return 1 + wire::varint_size(msg.label) + wire::varint_size(msg.node);
}
[[nodiscard]] std::size_t encoded_size(const Message& message) noexcept;

/// Serializes a protocol message into `buf`, replacing its contents. The
/// buffer's capacity is reused, so encoding into a recycled payload slot
/// (sim::PayloadArena::next_slot) allocates nothing once the slot has held
/// a payload at least as long.
void encode_message_into(const Message& message, wire::Buffer& buf);

/// Serializes a protocol message into a fresh buffer (encode_message_into
/// over an empty one).
[[nodiscard]] wire::Buffer encode_message(const Message& message);

/// Parses a protocol message; throws wire::WireError on malformed input
/// (truncated, unknown type tag, or trailing bytes).
[[nodiscard]] Message decode_message(std::span<const std::byte> bytes);

}  // namespace bil::core
