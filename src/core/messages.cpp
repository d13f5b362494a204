#include "core/messages.h"

#include <cstdint>
#include <utility>

namespace bil::core {

namespace {
enum class MsgType : std::uint8_t {
  kInit = 1,
  kPath = 2,
  kPosition = 3,
};
}  // namespace

std::size_t encoded_size(const Message& message) noexcept {
  return std::visit([](const auto& msg) { return encoded_size(msg); },
                    message);
}

void encode_message_into(const Message& message, wire::Buffer& buf) {
  buf.clear();
  buf.reserve(encoded_size(message));
  wire::Writer writer(std::move(buf));
  std::visit(
      [&writer](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, InitMsg>) {
          writer.u8(static_cast<std::uint8_t>(MsgType::kInit));
          writer.varint(msg.label);
        } else if constexpr (std::is_same_v<T, PathMsg>) {
          writer.u8(static_cast<std::uint8_t>(MsgType::kPath));
          writer.varint(msg.label);
          writer.varint(msg.start);
          writer.varint(msg.target);
        } else {
          static_assert(std::is_same_v<T, PositionMsg>);
          writer.u8(static_cast<std::uint8_t>(MsgType::kPosition));
          writer.varint(msg.label);
          writer.varint(msg.node);
        }
      },
      message);
  buf = std::move(writer).take();
}

wire::Buffer encode_message(const Message& message) {
  wire::Buffer buf;
  encode_message_into(message, buf);
  return buf;
}

Message decode_message(std::span<const std::byte> bytes) {
  wire::Reader reader(bytes);
  const auto type = static_cast<MsgType>(reader.u8());
  Message message;
  switch (type) {
    case MsgType::kInit: {
      InitMsg msg;
      msg.label = reader.varint();
      message = msg;
      break;
    }
    case MsgType::kPath: {
      PathMsg msg;
      msg.label = reader.varint();
      msg.start = static_cast<tree::NodeId>(reader.varint());
      msg.target = static_cast<tree::NodeId>(reader.varint());
      message = msg;
      break;
    }
    case MsgType::kPosition: {
      PositionMsg msg;
      msg.label = reader.varint();
      msg.node = static_cast<tree::NodeId>(reader.varint());
      message = msg;
      break;
    }
    default:
      throw wire::WireError("unknown message type tag");
  }
  reader.expect_done();
  return message;
}

}  // namespace bil::core
