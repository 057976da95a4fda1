// Frame codec: roundtrips, malformed-datagram rejection, and the
// hello / want-range payload helpers.
#include "wire/frame.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/kdf.hpp"

namespace cra::wire {
namespace {

Bytes some_payload(std::size_t n) {
  Rng rng(0xf7a3e);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next() & 0xff);
  return out;
}

TEST(Frame, RoundtripsEveryKindWithPayload) {
  const Bytes payload = some_payload(200);
  for (const FrameKind kind :
       {FrameKind::kHello, FrameKind::kHelloAck, FrameKind::kChal,
        FrameKind::kTokens, FrameKind::kBye}) {
    FrameHeader h;
    h.kind = kind;
    h.sender = 0x01020304;
    h.tick = 42;
    h.seq = 0xdeadbeef;
    const Bytes wire = encode_frame(h, payload);
    ASSERT_EQ(wire.size(), kFrameHeaderSize + payload.size());

    const auto frame = decode_frame(wire);
    ASSERT_TRUE(frame.has_value()) << frame_kind_name(kind);
    EXPECT_EQ(frame->header.kind, kind);
    EXPECT_EQ(frame->header.sender, 0x01020304u);
    EXPECT_EQ(frame->header.tick, 42u);
    EXPECT_EQ(frame->header.seq, 0xdeadbeefu);
    EXPECT_EQ(Bytes(frame->payload.begin(), frame->payload.end()), payload);
  }
}

TEST(Frame, RoundtripsEmptyPayload) {
  FrameHeader h;
  h.kind = FrameKind::kBye;
  const Bytes wire = encode_frame(h, {});
  const auto frame = decode_frame(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->payload.empty());
}

TEST(Frame, EncodeIntoMatchesAllocatingEncode) {
  const Bytes payload = some_payload(33);
  FrameHeader h;
  h.kind = FrameKind::kTokens;
  h.sender = 7;
  h.tick = 9;
  h.seq = 11;
  const Bytes wire = encode_frame(h, payload);
  std::uint8_t buf[kMaxDatagram];
  const std::size_t n = encode_frame_into(h, payload, buf);
  ASSERT_EQ(n, wire.size());
  EXPECT_EQ(Bytes(buf, buf + n), wire);
}

TEST(Frame, RejectsOversizedPayload) {
  FrameHeader h;
  EXPECT_NO_THROW(encode_frame(h, some_payload(kMaxPayload)));
  EXPECT_THROW(encode_frame(h, some_payload(kMaxPayload + 1)),
               std::length_error);
  // The decoder holds the same cap, even for a datagram whose length
  // field agrees with its size.
  Bytes wire = encode_frame(h, some_payload(kMaxPayload));
  ASSERT_TRUE(decode_frame(wire).has_value());
  wire.push_back(0);
  wire[kFrameHeaderSize - 2] = static_cast<std::uint8_t>(kMaxPayload + 1);
  wire[kFrameHeaderSize - 1] =
      static_cast<std::uint8_t>((kMaxPayload + 1) >> 8);
  EXPECT_FALSE(decode_frame(wire).has_value());
}

TEST(Frame, RejectsTruncatedDatagrams) {
  FrameHeader h;
  h.kind = FrameKind::kChal;
  const Bytes wire = encode_frame(h, some_payload(40));
  // Every prefix strictly shorter than the frame must be rejected —
  // including prefixes that still contain the whole header.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(decode_frame(BytesView(wire.data(), len)).has_value())
        << "accepted a " << len << "-byte prefix";
  }
}

TEST(Frame, RejectsBadMagicVersionKindAndLength) {
  FrameHeader h;
  h.kind = FrameKind::kHello;
  const Bytes good = encode_frame(h, some_payload(8));
  ASSERT_TRUE(decode_frame(good).has_value());

  Bytes bad = good;
  bad[0] ^= 0xff;  // magic
  EXPECT_FALSE(decode_frame(bad).has_value());

  bad = good;
  bad[4] = kFrameVersion + 1;  // version
  EXPECT_FALSE(decode_frame(bad).has_value());

  bad = good;
  bad[5] = 0;  // kind below range
  EXPECT_FALSE(decode_frame(bad).has_value());
  bad[5] = 200;  // kind above range
  EXPECT_FALSE(decode_frame(bad).has_value());

  bad = good;
  bad[kFrameHeaderSize - 2] ^= 0x01;  // payload_len vs datagram size
  EXPECT_FALSE(decode_frame(bad).has_value());

  // Trailing garbage after the declared payload is also a disagreement.
  bad = good;
  bad.push_back(0xab);
  EXPECT_FALSE(decode_frame(bad).has_value());
}

TEST(Frame, HelloRoundtripAndRejection) {
  const HelloPayload hello{4097, 25'000};
  const Bytes payload = encode_hello(hello);
  const auto back = decode_hello(payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->first_id, 4097u);
  EXPECT_EQ(back->count, 25'000u);

  EXPECT_FALSE(decode_hello(BytesView(payload.data(), 7)).has_value());
  Bytes longer = payload;
  longer.push_back(0);
  EXPECT_FALSE(decode_hello(longer).has_value());
}

TEST(Frame, WantRangesAbsentMeansPollEverything) {
  const Bytes chal = some_payload(20);
  const auto want = decode_want_ranges(chal, chal.size());
  ASSERT_TRUE(want.has_value());
  EXPECT_TRUE(want->empty());
}

TEST(Frame, WantRangesRoundtrip) {
  Bytes payload = some_payload(20);
  append_want_ranges(payload, {{1, 100}, {512, 3}, {90'000, 1}});
  const auto want = decode_want_ranges(payload, 20);
  ASSERT_TRUE(want.has_value());
  ASSERT_EQ(want->size(), 3u);
  EXPECT_EQ((*want)[0].start, 1u);
  EXPECT_EQ((*want)[0].count, 100u);
  EXPECT_EQ((*want)[1].start, 512u);
  EXPECT_EQ((*want)[1].count, 3u);
  EXPECT_EQ((*want)[2].start, 90'000u);
  EXPECT_EQ((*want)[2].count, 1u);
}

TEST(Frame, WantRangesRejectsMalformedTrailers) {
  Bytes payload = some_payload(20);
  append_want_ranges(payload, {{5, 10}});

  // Trailer length not a multiple of 8.
  Bytes ragged = payload;
  ragged.push_back(0);
  EXPECT_FALSE(decode_want_ranges(ragged, 20).has_value());

  // A zero-count range is meaningless — reject rather than ignore.
  Bytes zero = some_payload(20);
  append_want_ranges(zero, {{5, 0}});
  EXPECT_FALSE(decode_want_ranges(zero, 20).has_value());

  // Payload shorter than the chal itself.
  EXPECT_FALSE(decode_want_ranges(BytesView(payload.data(), 10), 20)
                   .has_value());
}

TEST(Frame, DeviceContentIsDeterministicAndDistinct) {
  const Bytes master = to_bytes("wire-test-master");
  const Bytes a1 = device_content(master, 7, 64);
  const Bytes a2 = device_content(master, 7, 64);
  const Bytes b = device_content(master, 8, 64);
  EXPECT_EQ(a1.size(), 64u);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_NE(device_content(to_bytes("other-master"), 7, 64), a1);
}

TEST(Frame, DeviceContentKnownAnswerSingleAndBatched) {
  // Pinned from the one-shot HKDF loop before the cached expand replaced
  // it; the agents' and the daemon's batched derivations must agree.
  const Bytes master = to_bytes("wire-test-master");
  const std::string want =
      "a89bdbc3d4c06633925474fb687c38ac4b2ce961c7f6fef8cbfce89b4748a616"
      "0288e53a177ac2e516957fc00c6a1a1573633392078b5b95087750decd7ed14e";
  EXPECT_EQ(to_hex(device_content(master, 7, 64)), want);
  const std::vector<std::uint32_t> ids = {6, 7, 8};
  std::vector<Bytes> batched;
  crypto::Hkdf(master).device_keys(ids, 64, kDeviceContentLabel,
                                   [&](std::uint32_t, BytesView c) {
                                     batched.emplace_back(c.begin(), c.end());
                                   });
  ASSERT_EQ(batched.size(), 3u);
  EXPECT_EQ(to_hex(batched[1]), want);
  EXPECT_EQ(batched[0], device_content(master, 6, 64));
  EXPECT_EQ(batched[2], device_content(master, 8, 64));
}

}  // namespace
}  // namespace cra::wire
