#include "wire/frame.hpp"

#include <stdexcept>

#include "crypto/kdf.hpp"

namespace cra::wire {

namespace {

void store_u16le(std::uint8_t* out, std::uint16_t v) noexcept {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

std::uint16_t load_u16le(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

}  // namespace

const char* frame_kind_name(FrameKind kind) noexcept {
  switch (kind) {
    case FrameKind::kHello: return "hello";
    case FrameKind::kHelloAck: return "hello-ack";
    case FrameKind::kChal: return "chal";
    case FrameKind::kTokens: return "tokens";
    case FrameKind::kBye: return "bye";
  }
  return "?";
}

std::size_t encode_frame_into(const FrameHeader& header, BytesView payload,
                              std::uint8_t* out) {
  if (payload.size() > kMaxPayload) {
    throw std::length_error("wire: frame payload exceeds kMaxPayload");
  }
  store_u32le(out, kFrameMagic);
  out[4] = kFrameVersion;
  out[5] = static_cast<std::uint8_t>(header.kind);
  store_u32le(out + 6, header.sender);
  store_u32le(out + 10, header.tick);
  store_u32le(out + 14, header.seq);
  store_u16le(out + 18, static_cast<std::uint16_t>(payload.size()));
  std::copy(payload.begin(), payload.end(), out + kFrameHeaderSize);
  return kFrameHeaderSize + payload.size();
}

Bytes encode_frame(const FrameHeader& header, BytesView payload) {
  Bytes out(kFrameHeaderSize + payload.size());
  encode_frame_into(header, payload, out.data());
  return out;
}

std::optional<Frame> decode_frame(BytesView datagram) noexcept {
  if (datagram.size() < kFrameHeaderSize) return std::nullopt;
  const std::uint8_t* p = datagram.data();
  if (load_u32le(p) != kFrameMagic) return std::nullopt;
  if (p[4] != kFrameVersion) return std::nullopt;
  const std::uint8_t kind = p[5];
  if (kind < static_cast<std::uint8_t>(FrameKind::kHello) ||
      kind > static_cast<std::uint8_t>(FrameKind::kBye)) {
    return std::nullopt;
  }
  const std::size_t payload_len = load_u16le(p + 18);
  // The receive buffer holds more than kMaxDatagram; no encoder does.
  if (payload_len > kMaxPayload) return std::nullopt;
  if (datagram.size() != kFrameHeaderSize + payload_len) return std::nullopt;
  Frame f;
  f.header.kind = static_cast<FrameKind>(kind);
  f.header.sender = load_u32le(p + 6);
  f.header.tick = load_u32le(p + 10);
  f.header.seq = load_u32le(p + 14);
  f.payload = datagram.subspan(kFrameHeaderSize);
  return f;
}

Bytes encode_hello(const HelloPayload& hello) {
  Bytes out;
  append_u32le(out, hello.first_id);
  append_u32le(out, hello.count);
  append_u64le(out, hello.epoch);
  return out;
}

std::optional<HelloPayload> decode_hello(BytesView payload) noexcept {
  // 16 bytes = current (epoch-carrying); 8 = legacy, epoch stays 0.
  if (payload.size() != 8 && payload.size() != 16) return std::nullopt;
  HelloPayload h;
  h.first_id = load_u32le(payload.data());
  h.count = load_u32le(payload.data() + 4);
  if (payload.size() == 16) {
    h.epoch = static_cast<std::uint64_t>(load_u32le(payload.data() + 8)) |
              (static_cast<std::uint64_t>(load_u32le(payload.data() + 12))
               << 32);
  }
  if (h.first_id == 0 || h.count == 0) return std::nullopt;
  return h;
}

void append_want_ranges(Bytes& payload, const std::vector<WantRange>& ranges) {
  for (const WantRange& r : ranges) {
    append_u32le(payload, r.start);
    append_u32le(payload, r.count);
  }
}

std::optional<std::vector<WantRange>> decode_want_ranges(
    BytesView payload, std::size_t chal_size) noexcept {
  if (payload.size() < chal_size) return std::nullopt;
  const std::size_t trailer = payload.size() - chal_size;
  if (trailer % 8 != 0) return std::nullopt;
  std::vector<WantRange> ranges(trailer / 8);
  const std::uint8_t* p = payload.data() + chal_size;
  for (WantRange& r : ranges) {
    r.start = load_u32le(p);
    r.count = load_u32le(p + 4);
    if (r.count == 0) return std::nullopt;
    p += 8;
  }
  return ranges;
}

Bytes device_content(BytesView master, std::uint32_t id, std::size_t size) {
  return crypto::derive_device_key(master, id, size, kDeviceContentLabel);
}

}  // namespace cra::wire
