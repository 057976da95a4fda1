// PADS wire format: the knowledge-gossip message.
//
// Every PADS exchange is one message shape — a device's current
// knowledge of the swarm (two bitsets over device ids: "I hold a
// verdict for d" and "d's verdict is untrusted") plus the sender's own
// self-attestation token, so the receiver can authenticate the sender
// before merging anything it claims. Layout (little-endian):
//
//   offset  size            field
//   0       4               sender device id
//   4       4               gossip epoch
//   8       4               knowledge width in bits (= swarm devices)
//   12      1               token length
//   13      token length    self-attestation token
//   ...     8 * blocks      `known` bitset, 64-bit words
//   ...     8 * blocks      `bad` bitset, 64-bit words
//
// with blocks = ceil(width / 64). GossipMsg is the owning form used by
// tests and tools; GossipView parses a payload in place for the
// simulator's receive path, which handles hundreds of thousands of
// these per round and must not copy kilobyte bitsets just to OR them.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "net/topology.hpp"

namespace cra::pads {

/// net::Message::kind of every PADS gossip exchange.
constexpr std::uint32_t kGossipKind = 0x50414453;  // "PADS"

inline std::size_t knowledge_blocks(std::uint32_t devices) {
  return (static_cast<std::size_t>(devices) + 63) / 64;
}

/// Read one little-endian word of a bitset straight out of the wire.
inline std::uint64_t load_u64le(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);  // the format is LE; so are our targets
  return v;
}

/// Append one gossip message to `out` (which may come from a payload
/// pool). Each bitset fills knowledge_blocks(devices) words on the wire,
/// zero-padded when shorter, so callers may pass sparse bitsets.
void encode_gossip(Bytes& out, net::NodeId sender, std::uint32_t epoch,
                   std::uint32_t devices, BytesView token,
                   std::span<const std::uint64_t> known,
                   std::span<const std::uint64_t> bad);

struct GossipMsg {
  net::NodeId sender = 0;
  std::uint32_t epoch = 0;
  std::uint32_t devices = 0;  // knowledge width in bits
  Bytes token;
  std::vector<std::uint64_t> known;
  std::vector<std::uint64_t> bad;

  std::size_t wire_size() const noexcept {
    return 13 + token.size() + 16 * knowledge_blocks(devices);
  }

  /// Append the wire encoding to `out` (encode_gossip).
  void encode_into(Bytes& out) const;
  Bytes encode() const;

  /// Strict decode: returns nullopt on truncated input, oversized
  /// declared fields, or trailing garbage.
  static std::optional<GossipMsg> decode(BytesView wire);
};

/// Zero-copy parse of an encoded gossip message. Valid only while the
/// underlying payload buffer lives.
struct GossipView {
  net::NodeId sender = 0;
  std::uint32_t epoch = 0;
  std::uint32_t devices = 0;
  BytesView token;
  const std::uint8_t* known = nullptr;  // blocks 64-bit LE words
  const std::uint8_t* bad = nullptr;

  std::size_t blocks() const noexcept { return knowledge_blocks(devices); }
  std::uint64_t known_block(std::size_t i) const noexcept {
    return load_u64le(known + 8 * i);
  }
  std::uint64_t bad_block(std::size_t i) const noexcept {
    return load_u64le(bad + 8 * i);
  }

  /// False on any framing violation (same checks as GossipMsg::decode).
  static bool parse(BytesView wire, GossipView& out) noexcept;
};

}  // namespace cra::pads
