// Seeded-mutation fuzzing of PADS's gossip parser.
//
// GossipView::parse reads every gossip payload a PADS device receives,
// and GossipMsg::decode is parse plus a copy. The seed corpus holds
// encodings of gossip messages at knowledge widths 0, 1, 63, 64, 65 and
// 1000 bits with tokens of 0, 20 and 255 bytes, and fuzz::mutate
// (tests/common/fuzz_mutate.hpp) edits them with fixed seeds, the
// sender, epoch and width fields among its 32-bit length edits. Under
// ASan (the sanitize CI job) a read past the frame fails the run.
// Properties:
//   * decode(encode(x)) == x for every seed;
//   * parse accepts exactly the payloads decode accepts, and the view
//     reads what decode copies;
//   * an accepted payload re-encodes to its own bytes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../common/fuzz_mutate.hpp"
#include "common/rng.hpp"
#include "pads/messages.hpp"

namespace cra::pads {
namespace {

using fuzz::mutate;

constexpr std::uint32_t kWidths[] = {0, 1, 63, 64, 65, 1000};
constexpr std::size_t kTokenLengths[] = {0, 20, 255};
constexpr std::uint64_t kSeeds[] = {1, 2, 3};
constexpr int kIterations = 1000;

std::string where(std::uint64_t seed, int iteration) {
  return "seed " + std::to_string(seed) + " iteration " +
         std::to_string(iteration);
}

std::vector<GossipMsg> seed_messages() {
  Rng rng(0x676f'7373'6970ULL);
  std::vector<GossipMsg> out;
  for (const std::uint32_t width : kWidths) {
    for (const std::size_t token_len : kTokenLengths) {
      GossipMsg m;
      m.sender = static_cast<net::NodeId>(1 + rng.next_below(width + 1));
      m.epoch = static_cast<std::uint32_t>(rng.next_below(100));
      m.devices = width;
      m.token = rng.next_bytes(token_len);
      for (std::size_t i = 0; i < knowledge_blocks(width); ++i) {
        m.known.push_back(rng.next());
        m.bad.push_back(m.known.back() & rng.next());
      }
      out.push_back(std::move(m));
    }
  }
  return out;
}

void expect_same(const GossipMsg& a, const GossipMsg& b,
                 const std::string& at) {
  EXPECT_EQ(a.sender, b.sender) << at;
  EXPECT_EQ(a.epoch, b.epoch) << at;
  EXPECT_EQ(a.devices, b.devices) << at;
  EXPECT_EQ(a.token, b.token) << at;
  EXPECT_EQ(a.known, b.known) << at;
  EXPECT_EQ(a.bad, b.bad) << at;
}

TEST(PadsMessagesFuzz, SeedsRoundTrip) {
  for (const GossipMsg& m : seed_messages()) {
    const auto back = GossipMsg::decode(m.encode());
    const std::string at = "width " + std::to_string(m.devices) +
                           " token " + std::to_string(m.token.size());
    ASSERT_TRUE(back.has_value()) << at;
    expect_same(*back, m, at);
  }
}

TEST(PadsMessagesFuzz, ParseAcceptsWhatDecodeAcceptsAndReencodes) {
  std::vector<Bytes> corpus;
  for (const GossipMsg& m : seed_messages()) corpus.push_back(m.encode());
  // The sender, epoch and width words; the token length is one byte
  // that the bit flips and truncations reach.
  const std::vector<std::size_t> length_fields = {0, 4, 8};

  std::size_t accepted = 0;
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int it = 0; it < kIterations; ++it) {
      const Bytes wire =
          mutate(rng, corpus[rng.next_below(corpus.size())], corpus,
                 length_fields);
      const std::string at = where(seed, it);
      GossipView view;
      const bool parsed = GossipView::parse(wire, view);
      const auto decoded = GossipMsg::decode(wire);
      ASSERT_EQ(parsed, decoded.has_value()) << at;
      if (!parsed) continue;
      ++accepted;

      EXPECT_EQ(view.sender, decoded->sender) << at;
      EXPECT_EQ(view.epoch, decoded->epoch) << at;
      EXPECT_EQ(view.devices, decoded->devices) << at;
      EXPECT_EQ(Bytes(view.token.begin(), view.token.end()), decoded->token)
          << at;
      ASSERT_EQ(view.blocks(), decoded->known.size()) << at;
      for (std::size_t i = 0; i < view.blocks(); ++i) {
        EXPECT_EQ(view.known_block(i), decoded->known[i]) << at;
        EXPECT_EQ(view.bad_block(i), decoded->bad[i]) << at;
      }
      EXPECT_EQ(decoded->encode(), wire) << at;
    }
  }
  // The mutations must leave some payloads whole, or the properties
  // above check nothing.
  EXPECT_GT(accepted, 100u);
}

}  // namespace
}  // namespace cra::pads
