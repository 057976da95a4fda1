#include "pads/messages.hpp"

#include <algorithm>
#include <limits>

namespace cra::pads {

void encode_gossip(Bytes& out, net::NodeId sender, std::uint32_t epoch,
                   std::uint32_t devices, BytesView token,
                   std::span<const std::uint64_t> known,
                   std::span<const std::uint64_t> bad) {
  const std::size_t blocks = knowledge_blocks(devices);
  const std::size_t at = out.size();
  out.resize(at + 13 + token.size() + 16 * blocks);  // zero-padded words
  std::uint8_t* p = out.data() + at;
  store_u32le(p, sender);
  store_u32le(p + 4, epoch);
  store_u32le(p + 8, devices);
  p[12] = static_cast<std::uint8_t>(token.size());
  p = std::copy(token.begin(), token.end(), p + 13);
  // The words go out as stored: the format is LE, and so are our targets
  // (load_u64le reads them back the same way).
  for (const std::span<const std::uint64_t> words : {known, bad}) {
    std::copy_n(reinterpret_cast<const std::uint8_t*>(words.data()),
                8 * std::min(blocks, words.size()), p);
    p += 8 * blocks;
  }
}

void GossipMsg::encode_into(Bytes& out) const {
  encode_gossip(out, sender, epoch, devices, token, known, bad);
}

Bytes GossipMsg::encode() const {
  Bytes out;
  encode_into(out);
  return out;
}

std::optional<GossipMsg> GossipMsg::decode(BytesView wire) {
  GossipView view;
  if (!GossipView::parse(wire, view)) return std::nullopt;
  GossipMsg msg;
  msg.sender = view.sender;
  msg.epoch = view.epoch;
  msg.devices = view.devices;
  msg.token.assign(view.token.begin(), view.token.end());
  const std::size_t blocks = view.blocks();
  msg.known.resize(blocks);
  msg.bad.resize(blocks);
  for (std::size_t i = 0; i < blocks; ++i) {
    msg.known[i] = view.known_block(i);
    msg.bad[i] = view.bad_block(i);
  }
  return msg;
}

bool GossipView::parse(BytesView wire, GossipView& out) noexcept {
  if (wire.size() < 13) return false;
  out.sender = read_u32le(wire, 0);
  out.epoch = read_u32le(wire, 4);
  out.devices = read_u32le(wire, 8);
  // Guard the width before computing sizes: a hostile 0xffffffff width
  // must not overflow the frame arithmetic.
  if (out.devices > (std::numeric_limits<std::uint32_t>::max() >> 7)) {
    return false;
  }
  const std::size_t token_len = wire[12];
  const std::size_t blocks = knowledge_blocks(out.devices);
  const std::size_t need = 13 + token_len + 16 * blocks;
  if (wire.size() != need) return false;
  out.token = wire.subspan(13, token_len);
  out.known = wire.data() + 13 + token_len;
  out.bad = out.known + 8 * blocks;
  return true;
}

}  // namespace cra::pads
