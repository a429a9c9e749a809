#include "vnet/message.hpp"

namespace decos::vnet {
namespace {

// Little-endian stores into a buffer already sized for the record.
void put_u16(std::uint8_t* at, std::uint16_t v) {
  at[0] = static_cast<std::uint8_t>(v & 0xFF);
  at[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    at[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
  }
}

std::uint16_t get_u16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>(in[at] | (in[at + 1] << 8));
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[at + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

}  // namespace

void pack_into(const std::vector<Message>& msgs, tta::RoundId round,
               std::vector<std::uint8_t>& out) {
  // Sized once; every byte below is written, so no clear() is needed.
  out.resize(2 + msgs.size() * kWireRecordSize);
  std::uint8_t* at = out.data();
  put_u16(at, static_cast<std::uint16_t>(msgs.size()));
  at += 2;
  for (const Message& m : msgs) {
    put_u16(at, m.vnet);
    put_u16(at + 2, m.port);
    put_u16(at + 4, m.sender);
    at[6] = m.kind;
    at[7] = 0;  // reserved / alignment
    put_u32(at + 8, m.seq);
    std::uint64_t bits;
    std::memcpy(&bits, &m.value, sizeof bits);
    put_u32(at + 12, static_cast<std::uint32_t>(bits & 0xFFFFFFFFu));
    put_u32(at + 16, static_cast<std::uint32_t>(bits >> 32));
    put_u32(at + 20, static_cast<std::uint32_t>(m.sent_round & 0xFFFFFFFFu));
    put_u32(at + 24, m.aux);
    at += kWireRecordSize;
  }
  (void)round;
}

bool unpack_into(std::span<const std::uint8_t> payload,
                 std::vector<Message>& out) {
  out.clear();
  if (payload.size() < 2) return false;
  const std::uint16_t count = get_u16(payload, 0);
  if (payload.size() != 2 + static_cast<std::size_t>(count) * kWireRecordSize) {
    return false;
  }
  out.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    const std::size_t base = 2 + static_cast<std::size_t>(i) * kWireRecordSize;
    Message m;
    m.vnet = get_u16(payload, base);
    m.port = get_u16(payload, base + 2);
    m.sender = get_u16(payload, base + 4);
    m.kind = payload[base + 6];
    m.seq = get_u32(payload, base + 8);
    const std::uint64_t bits =
        static_cast<std::uint64_t>(get_u32(payload, base + 12)) |
        (static_cast<std::uint64_t>(get_u32(payload, base + 16)) << 32);
    std::memcpy(&m.value, &bits, sizeof m.value);
    m.sent_round = get_u32(payload, base + 20);
    m.aux = get_u32(payload, base + 24);
    out.push_back(m);
  }
  return true;
}

std::vector<std::uint8_t> pack(const std::vector<Message>& msgs,
                               tta::RoundId round) {
  std::vector<std::uint8_t> out;
  pack_into(msgs, round, out);
  return out;
}

std::optional<std::vector<Message>> unpack(std::span<const std::uint8_t> payload) {
  std::vector<Message> msgs;
  if (!unpack_into(payload, msgs)) return std::nullopt;
  return msgs;
}

}  // namespace decos::vnet
